package driver

import (
	"testing"
	"unsafe"

	"repro/internal/reqbook"
)

// TestRequestRecordSize pins what a request in flight costs the book, a
// 40-byte record, and a cell's driver record — its Env, its tallies and
// its chain in the book — at one 64-byte cache line.
func TestRequestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(reqbook.Rec{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(reqbook.Rec{}) = %d, budget 40", got)
	}
	if got := unsafe.Sizeof(cellEnv{}); got > 64 {
		t.Fatalf("unsafe.Sizeof(cellEnv{}) = %d, budget 64", got)
	}
}
