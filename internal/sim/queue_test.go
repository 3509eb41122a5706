package sim

import (
	"testing"
	"time"
)

func TestQueueSendRecv(t *testing.T) {
	s := New(1)
	q := NewQueue[int](4)
	var got []int
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 6; i++ {
			q.Send(p, i)
			p.Sleep(time.Millisecond)
		}
		q.Close()
	})
	s.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Recv(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	s.RunUntilIdle(10000)
	if len(got) != 6 {
		t.Fatalf("got %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v", got)
		}
	}
}

func TestQueueBlocksWhenFull(t *testing.T) {
	s := New(1)
	q := NewQueue[int](2)
	var sendDone Time = -1
	s.Spawn("producer", func(p *Proc) {
		q.Send(p, 1)
		q.Send(p, 2)
		q.Send(p, 3) // blocks until consumer drains
		sendDone = p.Now()
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		q.Recv(p)
	})
	s.RunUntilIdle(1000)
	if sendDone != Time(5*time.Millisecond) {
		t.Fatalf("third send completed at %v, want 5ms", sendDone)
	}
}

func TestQueueRecvBlocksWhenEmpty(t *testing.T) {
	s := New(1)
	q := NewQueue[string](2)
	var recvAt Time = -1
	s.Spawn("consumer", func(p *Proc) {
		v, ok := q.Recv(p)
		if !ok || v != "x" {
			t.Errorf("recv = %q, %v", v, ok)
		}
		recvAt = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(7 * time.Millisecond)
		q.Send(p, "x")
	})
	s.RunUntilIdle(1000)
	if recvAt != Time(7*time.Millisecond) {
		t.Fatalf("recv at %v", recvAt)
	}
}

func TestQueueTryOps(t *testing.T) {
	q := NewQueue[int](1)
	if _, ok := q.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue succeeded")
	}
	if !q.TrySend(1) {
		t.Fatal("TrySend on empty queue failed")
	}
	if q.TrySend(2) {
		t.Fatal("TrySend on full queue succeeded")
	}
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = %v, %v", v, ok)
	}
	if v, ok := q.TryRecv(); !ok || v != 1 {
		t.Fatalf("TryRecv = %v, %v", v, ok)
	}
	if q.Len() != 0 || q.Cap() != 1 {
		t.Fatalf("Len=%d Cap=%d", q.Len(), q.Cap())
	}
}

func TestQueueCloseUnblocksWaiters(t *testing.T) {
	s := New(1)
	q := NewQueue[int](1)
	var recvOK, sendOK = true, true
	s.Spawn("consumer", func(p *Proc) {
		_, recvOK = q.Recv(p)
	})
	s.Spawn("filler", func(p *Proc) {
		// Fill queue then block on the next send.
		q.Send(p, 1)
		q.Send(p, 2) // consumer takes 1... actually consumer is waiting; ordering below
		sendOK = q.Send(p, 3)
	})
	s.At(Time(time.Millisecond), func() { q.Close() })
	s.RunUntilIdle(1000)
	if sendOK {
		t.Fatal("send after close succeeded")
	}
	_ = recvOK // consumer may have received a value before close; both outcomes valid
	if !q.Closed() {
		t.Fatal("queue not closed")
	}
}

func TestQueueMinCapacity(t *testing.T) {
	q := NewQueue[int](0)
	if q.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamped to 1", q.Cap())
	}
}
