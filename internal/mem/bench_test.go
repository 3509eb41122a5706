package mem

import (
	"strconv"
	"testing"
)

func BenchmarkTryAllocFree(b *testing.B) {
	_, fa := newAlloc(64)
	c, err := fa.Admit(1, Contract{Guaranteed: 32}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := c.TryAllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		if err := c.FreeFrame(pfn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocFreeClients measures the frame alloc/free cycle with 10,
// 100 and 1,000 admitted clients over proportionally sized memory. The
// indexed free queue keeps the cycle O(1) regardless of client count or
// memory size; each iteration exercises the unspecific pop-head path, the
// coloured queue walk (a few frames from the head) and the tail free.
func BenchmarkAllocFreeClients(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			_, fa := newAlloc(16 * n)
			clients := make([]*Client, n)
			for i := 0; i < n; i++ {
				c, err := fa.Admit(DomainID(i+1), Contract{Guaranteed: 8}, nil)
				if err != nil {
					b.Fatal(err)
				}
				clients[i] = c
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := clients[i%n]
				pfn, err := c.TryAllocFrame()
				if err != nil {
					b.Fatal(err)
				}
				cpfn, err := c.AllocColoured(i%8, 8)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.FreeFrame(pfn); err != nil {
					b.Fatal(err)
				}
				if err := c.FreeFrame(cpfn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFrameStackReorder(b *testing.B) {
	var st FrameStack
	for i := 0; i < 64; i++ {
		st.PushBottom(PFN(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn := PFN(i % 64)
		st.MoveToTop(pfn)
		st.MoveToBottom(pfn)
	}
}

func BenchmarkRamTabTransitions(b *testing.B) {
	rt := NewRamTab(8)
	rt.Grant(3, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.SetState(3, 1, Mapped)
		rt.SetState(3, 1, Unused)
	}
}
