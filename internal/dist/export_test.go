package dist

// SolveDC exposes the scheduler's DC solve to the external tests, whose row
// 0 must be its x_DC.
var SolveDC = solveDC
