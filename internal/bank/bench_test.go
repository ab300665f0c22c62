package bank

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// BenchmarkBankTransferParallel measures signed transfers into one in-memory
// bank from b.RunParallel workers: owner-signature verify, receipt signing
// and the apply. Requests are signed before the timer starts, so client
// signing is not timed. Run with -cpu 1,2 (make bench-bank): because the
// Ed25519 work runs outside the bank lock, ns/op at -cpu 2 should be well
// below the -cpu 1 figure.
func BenchmarkBankTransferParallel(b *testing.B) {
	f := newWallFixture(b)
	if err := f.bank.Deposit("alice", Amount(b.N), "bench"); err != nil {
		b.Fatal(err)
	}
	reqs := make([]TransferRequest, b.N)
	for i := range reqs {
		reqs[i] = signedTransfer(f.alice, "alice", "bob", 1, fmt.Sprintf("bench-%d", i))
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := f.bank.Transfer(reqs[next.Add(1)-1]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
