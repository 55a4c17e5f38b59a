// Package suppress is a shadowvet test fixture for the
// //shadowvet:ignore directive (analyzed as a simulation package).
package suppress

func trailing(m map[int]int) int {
	trailingTotal := 0
	for _, v := range m {
		trailingTotal += v //shadowvet:ignore determinism -- integer sum, order-independent
	}
	return trailingTotal
}

func above(m map[int]int) int {
	aboveTotal := 0
	for _, v := range m {
		//shadowvet:ignore determinism -- integer sum, order-independent
		aboveTotal += v
	}
	return aboveTotal
}

func wrongName(m map[int]int) int {
	// A directive naming a different analyzer must not waive this one.
	unsuppressed := 0
	for _, v := range m {
		unsuppressed += v //shadowvet:ignore lockflow -- names the wrong analyzer
	}
	return unsuppressed
}
