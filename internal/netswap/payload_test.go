package netswap

import (
	"bytes"
	"testing"

	"nemesis/internal/stretchdrv"
	"nemesis/internal/vm"
)

// zeroBatch returns n dirty pages of zeros at consecutive addresses.
func zeroBatch(n int) []stretchdrv.DirtyPage {
	out := make([]stretchdrv.DirtyPage, n)
	for i := range out {
		out[i] = stretchdrv.DirtyPage{VA: vm.VA(0x1000000000 + i*vm.PageSize), Data: make([]byte, vm.PageSize)}
	}
	return out
}

// An all-zero write batch builds no payload of its own: it sends a capped
// slice of zeroPayload. A batch too large for it, or with one page of data,
// is copied byte for byte. TestRemoteWriteReadRoundTrip reads both kinds
// back through the server.
func TestWritePayload(t *testing.T) {
	for _, pages := range []int{1, defaultMaxBatch} {
		zeros := zeroBatch(pages)
		var got []byte
		if allocs := testing.AllocsPerRun(20, func() { got = payload(zeros) }); allocs != 0 {
			t.Fatalf("all-zero batch of %d allocated %v times, want 0", pages, allocs)
		}
		if n := pages * vm.PageSize; &got[0] != &zeroPayload[0] || len(got) != n || cap(got) != n {
			t.Fatalf("all-zero payload is not zeroPayload[:%d:%d] (len %d, cap %d)", n, n, len(got), cap(got))
		}
	}
	big := payload(zeroBatch(defaultMaxBatch + 1))
	if &big[0] == &zeroPayload[0] || !bytes.Equal(big, make([]byte, (defaultMaxBatch+1)*vm.PageSize)) {
		t.Fatal("an oversized all-zero batch was not copied")
	}
	mixed := zeroBatch(4)
	mixed[2].Data = page(0x5A)
	want := bytes.Join([][]byte{mixed[0].Data, mixed[1].Data, mixed[2].Data, mixed[3].Data}, nil)
	if got := payload(mixed); &got[0] == &zeroPayload[0] || !bytes.Equal(got, want) {
		t.Fatal("a batch with one page of data was not copied byte for byte")
	}
}

// page returns one page filled with b.
func page(b byte) []byte { return bytes.Repeat([]byte{b}, vm.PageSize) }
