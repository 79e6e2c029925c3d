package engine

import (
	"ipa/internal/core"
	"ipa/internal/wal"
)

// LogUpdate exposes tx.logUpdate so allocation guards can measure the
// update-logging path (logUpdate → wal.Append) in isolation.
func (tx *Tx) LogUpdate(pg core.PageID, op wal.PageOp, slot int, before, after []byte) core.LSN {
	return tx.logUpdate(pg, op, slot, 0, before, after)
}
