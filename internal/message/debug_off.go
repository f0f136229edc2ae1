//go:build !uppdebug

package message

// Debug compiles the datapath's hot-path assertions in: stale-generation
// asserts on released packets, the cross-check of every zero-census reject
// in the router's StalledHead against the full VC scan, and Network.Step's
// wake and occupancy-mask invariants. It is the only constant the uppdebug
// build tag sets; off by default so the asserts compile away. Cold-path
// assertions (UPP popup ownership, double release) and the network's state
// checks are always on.
const Debug = false
