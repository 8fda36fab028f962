package adaptive

// SetThresholds replaces a fresh counter's hysteresis depth and occupancy
// edges, so tests can force live regime switches with tiny thresholds.
// Call it before the counter's first Next.
func SetThresholds(c *Counter, hold, directMax, combineMax int) {
	c.pol.hold = hold
	c.pol.directMax = float64(directMax)
	c.pol.combineMax = float64(combineMax)
}
