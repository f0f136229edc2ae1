//go:build !uppdebug

package router

// censusDebug makes StalledHead run the full scan even when the upward
// census is zero and panic if the scan finds what the census denies. Off
// by default — the O(1) reject is the point; build with -tags uppdebug to
// compile the assertion in.
const censusDebug = false
