package lockflow

// A lockflow waiver suppresses the unreleased-lock finding on its line:
// the release happens in another function by design.

func handedToCaller(c *counter) {
	c.mu.Lock() //shadowvet:ignore lockflow -- acquired for the caller; released by releaseCounter when the batch completes
	c.n++
}

func releaseCounter(c *counter) {
	c.mu.Unlock()
}
