//go:build uppdebug

package router

// censusDebug: uppdebug builds cross-check every zero-census reject in
// StalledHead against the full scan; see censusdebug_off.go.
const censusDebug = true
