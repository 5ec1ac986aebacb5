package asmr

// SetRetainDepth runs the lifetime rule at another depth for one test and
// returns the function that puts RetainDepth back. Tests only: the depth
// is a constant of the protocol everywhere else.
func SetRetainDepth(d uint64) (restore func()) {
	old := retainDepth
	retainDepth = d
	return func() { retainDepth = old }
}
