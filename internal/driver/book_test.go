package driver

import (
	"testing"
	"unsafe"

	"repro/internal/reqbook"
)

// TestRequestRecordSize pins what a request in flight costs the book, a
// 40-byte record, and what a cell's chain adds to its cellStat.
func TestRequestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(reqbook.Rec{}); got > 40 {
		t.Fatalf("unsafe.Sizeof(reqbook.Rec{}) = %d, budget 40", got)
	}
	if got := unsafe.Sizeof(cellStat{}); got > 24 {
		t.Fatalf("unsafe.Sizeof(cellStat{}) = %d, budget 24", got)
	}
}
