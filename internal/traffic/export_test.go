package traffic

// Test access to the arrival memo behind Feed.

// MemoCap is the most arrivals one memo entry records.
const MemoCap = memoCap

// ResetMemo empties the memo, so the next Feed draws live.
func ResetMemo() {
	memo.mu.Lock()
	memo.entry = nil
	memo.mu.Unlock()
}

// MemoHolds reports whether the memo holds the arrivals of this key.
func MemoHolds(load LoadSpec, linkRate, horizon float64, seed uint64) bool {
	memo.mu.Lock()
	e := memo.entry
	memo.mu.Unlock()
	return e != nil && e.key.matches(&load, linkRate, horizon, seed)
}
