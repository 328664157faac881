package core

// retained reports the number of memoized sources and their charged
// bytes.
func (m *dfaMemo) retained() (entries, bytes int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byKey), m.bytes
}

// DFAMemoRetained exposes the number of gap automata a Completer's memo
// retains to the external test package.
func DFAMemoRetained(c *Completer) int {
	n, _ := c.dfas.retained()
	return n
}
