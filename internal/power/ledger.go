package power

import "sort"

// ledger is one energy attribution (per hardware component or per software
// principal) kept in dense slots. A name gets the next slot the first time
// it is seen and keeps it; the integrator then adds joules by slot, and
// maps exist only at the reporting API.
type ledger struct {
	index map[string]int
	slots []ledgerSlot
	// byName holds every slot sorted by name: the order in which sums
	// fold, so a ledger's total is independent of slot assignment order.
	byName []int
	// memo is a direct-mapped cache in front of index, keyed by
	// memoKey. The integrator resolves the same handful of names over and
	// over, usually as identical string headers, and one string
	// comparison is cheaper than a map lookup. A collision only costs a
	// fall-through to index.
	memo [memoSize]memoSlot
}

type ledgerSlot struct {
	name   string
	joules float64
	// booked marks a slot charged at least once, even with 0 J; only
	// booked names are reported.
	booked bool
}

const (
	memoSize = 16
	// ledgerCap is the slot capacity reserved up front: a rig's
	// accountant holds about half a dozen components, so its component
	// ledger never regrows.
	ledgerCap = 8
)

type memoSlot struct {
	name string
	slot int // -1 while the entry is empty
}

func newLedger() ledger {
	l := ledger{
		index:  make(map[string]int),
		slots:  make([]ledgerSlot, 0, ledgerCap),
		byName: make([]int, 0, ledgerCap),
	}
	for i := range l.memo {
		l.memo[i].slot = -1
	}
	return l
}

// memoKey picks name's memo entry from its length and first byte, which
// separate the few names a ledger holds well enough.
func memoKey(name string) int {
	if name == "" {
		return 0
	}
	return (len(name) + int(name[0])) % memoSize
}

// lookup returns name's slot, if it has one, and remembers it in the memo.
func (l *ledger) lookup(name string) (int, bool) {
	m := &l.memo[memoKey(name)]
	if m.slot >= 0 && m.name == name {
		return m.slot, true
	}
	s, ok := l.index[name]
	if ok {
		m.name, m.slot = name, s
	}
	return s, ok
}

// slot returns name's slot, assigning the next one on first sight.
func (l *ledger) slot(name string) int {
	if s, ok := l.lookup(name); ok {
		return s
	}
	s := len(l.slots)
	l.index[name] = s
	//odylint:allow hotalloc grows once per name, the first time it is seen
	l.slots = append(l.slots, ledgerSlot{name: name})
	l.byName = l.insertByName(l.byName, s)
	return s
}

// insertByName inserts slot s into list, which is sorted by slot name, and
// returns the extended list.
func (l *ledger) insertByName(list []int, s int) []int {
	i := 0
	for i < len(list) && l.slots[list[i]].name < l.slots[s].name {
		i++
	}
	//odylint:allow hotalloc grows once per name, the first time it is seen
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = s
	return list
}

// charge adds joules to slot s and marks it booked.
func (l *ledger) charge(s int, joules float64) {
	e := &l.slots[s]
	e.joules += joules
	e.booked = true
}

// energy returns name's joules, 0 if it has no slot.
func (l *ledger) energy(name string) float64 {
	if s, ok := l.lookup(name); ok {
		return l.slots[s].joules
	}
	return 0
}

// sum adds the booked slots' joules in ascending name order, the same
// fold sumSorted performs over the reported map, without allocating.
func (l *ledger) sum() float64 {
	var sum float64
	for _, s := range l.byName {
		if e := &l.slots[s]; e.booked {
			sum += e.joules
		}
	}
	return sum
}

// report copies the booked slots into a map keyed by name.
func (l *ledger) report() map[string]float64 {
	out := make(map[string]float64, len(l.slots))
	for _, e := range l.slots {
		if e.booked {
			out[e.name] = e.joules
		}
	}
	return out
}

// byEnergy returns the booked names sorted by descending energy, ties
// broken by ascending name.
func (l *ledger) byEnergy() []string {
	booked := make([]ledgerSlot, 0, len(l.slots))
	for _, s := range l.byName {
		if l.slots[s].booked {
			booked = append(booked, l.slots[s])
		}
	}
	// byName order makes the stable sort break energy ties by name.
	sort.SliceStable(booked, func(i, j int) bool { return booked[i].joules > booked[j].joules })
	names := make([]string, len(booked))
	for i, e := range booked {
		names[i] = e.name
	}
	return names
}
