// Package hw models the hardware of the profiled mobile computer — the IBM
// ThinkPad 560X of the paper — as a set of devices with discrete power
// states: display (with optional zoned backlighting), WaveLAN wireless
// interface, disk (with spin-down), and CPU. A Machine assembles the devices
// and wires them to a power.Accountant.
//
// The power figures come from the paper's Figure 4, reconstructed so that
// every cross-check in the text holds: background power (display dim,
// WaveLAN and disk in standby) is 5.6 W, full-on idle power (display bright,
// WaveLAN and disk idle) is 10.28 W, which is 0.21 W more than the sum of
// the component figures (the "consistently superlinear" draw), and the
// display accounts for ~35% of background power. The cross-checks do not
// pin which of the two idle figures (1.54 W and 0.88 W) belongs to the disk
// versus the WaveLAN; we assign the larger to the disk because the paper
// attributes most of the video player's hardware-only savings to disk
// power management. States the paper does not tabulate (transfer-mode NIC
// power, active-disk power, busy-CPU power) are documented assumptions
// calibrated against the paper's application results.
package hw

import "time"

// Component names used with the power accountant.
const (
	CompDisplay = "display"
	CompNetwork = "network"
	CompDisk    = "disk"
	CompCPU     = "cpu"
	CompOther   = "other"
)

// Profile holds the power model of a mobile computer.
type Profile struct {
	// Display panel power by backlight level (W).
	DisplayBright float64
	DisplayDim    float64
	// DisplayOff is the panel's power when dark (usually 0).
	DisplayOff float64

	// WaveLAN network interface power by state (W). Transfer covers both
	// transmit and receive, which are within a few percent of each other
	// on the 900 MHz WaveLAN.
	NICIdle     float64
	NICStandby  float64
	NICTransfer float64
	NICOff      float64

	// Disk power by state (W).
	DiskActive  float64
	DiskIdle    float64
	DiskStandby float64
	DiskOff     float64

	// Other is the power drawn with every device off and the CPU halted
	// (the Pentium hlt loop) — motherboard, memory, regulators.
	Other float64

	// CPUBusy is the additional draw when the processor is executing
	// rather than halted.
	CPUBusy float64

	// SuperlinearCoeff models the measured superlinearity: total power is
	// sum + SuperlinearCoeff * max(0, sum-Other).
	SuperlinearCoeff float64

	// DiskSpinDown is the inactivity timeout before the disk drops to
	// standby when hardware power management is enabled (10 s in the
	// paper's experiments).
	DiskSpinDown time.Duration
	// DiskSpinUp is the delay (at active power) to leave standby.
	DiskSpinUp time.Duration

	// NICResume is the delay to bring the interface out of standby
	// before an RPC or bulk transfer.
	NICResume time.Duration

	// LinkBandwidth is the effective shared wireless bandwidth in
	// bytes/second (the 2 Mb/s WaveLAN delivers roughly 80% of nominal).
	LinkBandwidth float64
	// LinkLatency is the one-way packet latency.
	LinkLatency time.Duration

	// Voltage is the well-controlled input voltage; PowerScope infers
	// power from current samples alone because of it.
	Voltage float64
}

// ThinkPad560X returns the power model of the paper's profiling computer.
func ThinkPad560X() Profile {
	return Profile{
		DisplayBright: 4.46,
		DisplayDim:    1.95,
		DisplayOff:    0.0,

		NICIdle:     0.88,
		NICStandby:  0.18,
		NICTransfer: 3.10, // assumption: WaveLAN tx/rx draw (not in Fig 4)
		NICOff:      0.0,

		DiskActive:  2.30, // assumption: 2.5" drive seek/read draw
		DiskIdle:    1.54,
		DiskStandby: 0.24,
		DiskOff:     0.0,

		Other:   3.20,
		CPUBusy: 9.50, // assumption: client executing vs halted (CPU plus
		// the memory/chipset activity that tracks it)

		// 0.21 W extra at a 10.07 W component sum, scaling from the
		// everything-off floor.
		SuperlinearCoeff: 0.21 / (10.07 - 3.20),

		DiskSpinDown: 10 * time.Second,
		DiskSpinUp:   1500 * time.Millisecond,
		NICResume:    40 * time.Millisecond,

		LinkBandwidth: 2_000_000 / 8 * 0.80, // 2 Mb/s at 80% efficiency
		LinkLatency:   3 * time.Millisecond,

		Voltage: 16.0,
	}
}

// Scaled returns a hardware variant of the profile for heterogeneous-fleet
// modeling: every component draw (display, NIC, disk, CPU, motherboard) is
// multiplied by powerFactor and the wireless link bandwidth by linkFactor.
// Timing constants (spin-down, resume, latency) and the superlinearity
// coefficient are preserved, so a variant behaves like the same machine
// built from a different bin of parts. Factors <= 0 are treated as 1, so
// the zero value of a device class leaves the reference profile untouched.
func (p Profile) Scaled(powerFactor, linkFactor float64) Profile {
	if powerFactor <= 0 {
		powerFactor = 1
	}
	if linkFactor <= 0 {
		linkFactor = 1
	}
	p.DisplayBright *= powerFactor
	p.DisplayDim *= powerFactor
	p.DisplayOff *= powerFactor
	p.NICIdle *= powerFactor
	p.NICStandby *= powerFactor
	p.NICTransfer *= powerFactor
	p.NICOff *= powerFactor
	p.DiskActive *= powerFactor
	p.DiskIdle *= powerFactor
	p.DiskStandby *= powerFactor
	p.DiskOff *= powerFactor
	p.Other *= powerFactor
	p.CPUBusy *= powerFactor
	p.LinkBandwidth *= linkFactor
	return p
}

// Superlinear maps a component power sum to total system power.
func (p Profile) Superlinear(sum float64) float64 {
	return superlinear(sum, p.Other, p.SuperlinearCoeff)
}

// superlinear is Profile.Superlinear on the two fields it reads, so a
// caller can bind them without copying the whole Profile per call.
func superlinear(sum, other, coeff float64) float64 {
	excess := sum - other
	if excess < 0 {
		excess = 0
	}
	return sum + coeff*excess
}

// BackgroundPower returns the draw with display dim and WaveLAN and disk in
// standby — the P_B of the paper's think-time model (≈5.6 W).
func (p Profile) BackgroundPower() float64 {
	return p.Superlinear(p.Other + p.DisplayDim + p.NICStandby + p.DiskStandby)
}

// FullOnIdlePower returns the draw with display bright and WaveLAN and disk
// idle but nothing executing (≈10.28 W).
func (p Profile) FullOnIdlePower() float64 {
	return p.Superlinear(p.Other + p.DisplayBright + p.NICIdle + p.DiskIdle)
}
