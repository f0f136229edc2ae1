package message

import "math/bits"

// Field widths of the Fig. 4 UPP signal encodings. UPP_req and UPP_stop
// carry type | dest | one-hot vnet | input VC; UPP_ack carries type |
// one-hot vnet | start mask. The simulator moves the signal state as
// fields of the popup, not as wire words: these widths exist to check,
// once per attached system, that the hardware budget holds.
const (
	signalTypeBits = 3
	destBits       = 8
	vnetBits       = 3 // one-hot over NumVNets
	inputVCBits    = 4
	startBits      = 3

	// AckBits is the encoded width of UPP_ack (3+3+3 = 9 bits).
	AckBits = signalTypeBits + vnetBits + startBits
	// SignalBufferBits is the conservative buffer width the paper
	// provisions per signal buffer.
	SignalBufferBits = 32
)

// ReqStopBits returns the encoded width of UPP_req/UPP_stop on a system
// of numNodes routers with numVCs input VCs per port: 3+8+3+4 = 18 bits
// on the paper's systems. The destination field widens to
// ceil(log2(numNodes)) past 256 nodes and the input-VC field to
// ceil(log2(numVCs)) past 16 VCs; the rest of the encoding is unchanged.
// The result must fit SignalBufferBits for the signal to fit its buffer.
func ReqStopBits(numNodes, numVCs int) int {
	return signalTypeBits + max(destBits, bits.Len(uint(numNodes-1))) +
		vnetBits + max(inputVCBits, bits.Len(uint(numVCs-1)))
}
