package network

// WheelBuffers counts the event buffers the wheel owns: one per slot that
// holds events plus the drained ones on the free stack.
func (n *Network) WheelBuffers() int {
	held := len(n.wheelFree)
	for i := range n.wheel {
		if n.wheel[i] != nil {
			held++
		}
	}
	return held
}
