//go:build uppdebug

package message

// Debug compiles the datapath's hot-path assertions in. This build has
// them enabled (-tags uppdebug); see debug_off.go for the default.
const Debug = true
