package bank

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tycoongrid/internal/sim"
)

// Transfer and PrepareTransfer verify the owner signature and sign the
// receipt outside the bank lock, then re-check under it. These tests race
// those unlocked windows against each other; run them with -race.

const racers = 8

// newWallFixture is newFixture on the wall clock, so receipts signed by
// racing transfers carry distinct timestamps and therefore distinct bank
// signatures: a receipt that is not the stored one cannot pass as it.
func newWallFixture(t testing.TB) *fixture {
	t.Helper()
	f := newFixture(t)
	f.bank.clock = sim.WallClock{}
	return f
}

// race runs fn(i) on racers goroutines released together and waits for all.
func race(fn func(i int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fn(i)
		}(i)
	}
	close(start)
	wg.Wait()
}

// watchTotal polls b.TotalMoney until stop is closed and reports every
// reading that differs from want; the returned channel closes when it exits.
func watchTotal(t *testing.T, b *Bank, want Amount, stop <-chan struct{}) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if got := b.TotalMoney(); got != want {
				t.Errorf("total money mid-run = %v, want %v", got, want)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	return done
}

func TestConcurrentIdenticalTransferAppliesOnce(t *testing.T) {
	f := newWallFixture(t)
	before := f.bank.TotalMoney()
	replays := mTransferReplays.Value()
	req := signedTransfer(f.alice, "alice", "bob", 3*Credit, "same")

	var receipts [racers]Receipt
	var errs [racers]error
	race(func(i int) { receipts[i], errs[i] = f.bank.Transfer(req) })

	for i, err := range errs {
		if err != nil {
			t.Fatalf("racer %d: %v", i, err)
		}
		if !reflect.DeepEqual(receipts[i], receipts[0]) {
			t.Errorf("racer %d got %+v, racer 0 got %+v", i, receipts[i], receipts[0])
		}
	}
	if !VerifyReceipt(f.bank.PublicKey(), receipts[0]) {
		t.Error("receipt does not verify")
	}
	if got := mTransferReplays.Value() - replays; got != racers-1 {
		t.Errorf("replays counted %d, want %d", got, racers-1)
	}
	if bal, _ := f.bank.Balance("bob"); bal != 3*Credit {
		t.Errorf("bob has %v, want one transfer of 3", bal)
	}
	if h := f.bank.History("bob"); len(h) != 1 {
		t.Errorf("bob's ledger has %d entries, want 1: %+v", len(h), h)
	}
	if got := f.bank.TotalMoney(); got != before {
		t.Errorf("total money %v -> %v", before, got)
	}
}

func TestConcurrentNonceReuseOneWins(t *testing.T) {
	f := newWallFixture(t)
	before := f.bank.TotalMoney()
	reused := mNonceReuse.Value()

	var receipts [racers]Receipt
	var errs [racers]error
	race(func(i int) {
		req := signedTransfer(f.alice, "alice", "bob", Amount(i+1)*Credit, "contested")
		receipts[i], errs[i] = f.bank.Transfer(req)
	})

	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner < 0:
			winner = i
		case err == nil:
			t.Errorf("racers %d and %d both applied nonce %q", winner, i, "contested")
		case !errors.Is(err, ErrNonceReused):
			t.Errorf("racer %d: %v, want ErrNonceReused", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no racer applied the transfer")
	}
	if got := mNonceReuse.Value() - reused; got != racers-1 {
		t.Errorf("nonce reuse counted %d, want %d", got, racers-1)
	}
	if bal, _ := f.bank.Balance("bob"); bal != receipts[winner].Amount {
		t.Errorf("bob has %v, want the winner's %v", bal, receipts[winner].Amount)
	}
	if got := f.bank.TotalMoney(); got != before {
		t.Errorf("total money %v -> %v", before, got)
	}
}

func TestConcurrentPrepareTransferOneHold(t *testing.T) {
	f := newWallFixture(t)
	var errs [racers]error
	race(func(i int) {
		errs[i] = f.bank.PrepareTransfer(signedTransfer(f.alice, "alice", "remote", Credit, "tx-1"))
	})
	applied := 0
	for i, err := range errs {
		switch {
		case err == nil:
			applied++
		case !errors.Is(err, ErrDuplicateHold) && !errors.Is(err, ErrNonceReused):
			t.Errorf("racer %d: %v", i, err)
		}
	}
	if applied != 1 {
		t.Fatalf("%d prepares applied, want 1", applied)
	}
	if bal, _ := f.bank.Balance("alice"); bal != 99*Credit {
		t.Errorf("alice has %v, want 99 after one hold", bal)
	}
	if held := f.bank.HeldTotal(); held != Credit {
		t.Errorf("held %v, want 1", held)
	}
}

// sameReceipt compares receipts field by field; At goes through Equal
// because a recovered time has no monotonic reading.
func sameReceipt(a, b Receipt) bool {
	return a.TransferID == b.TransferID && a.From == b.From && a.To == b.To &&
		a.Amount == b.Amount && a.At.Equal(b.At) && bytes.Equal(a.BankSig, b.BankSig)
}

// bankState is the part of a bank a rejected request must not touch.
type bankState struct {
	balances map[AccountID]Amount
	nonces   int
	receipts int
	holds    int
	seq      uint64
}

func stateOf(b *Bank) bankState {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := bankState{
		balances: make(map[AccountID]Amount, len(b.accounts)),
		nonces:   len(b.nonces),
		receipts: len(b.receipts),
		holds:    len(b.holds),
		seq:      b.seq,
	}
	for id, a := range b.accounts {
		s.balances[id] = a.Balance
	}
	return s
}

func TestBadSignatureLeavesStateUntouched(t *testing.T) {
	f := newWallFixture(t)
	if _, err := f.bank.Transfer(signedTransfer(f.alice, "alice", "bob", Credit, "paid")); err != nil {
		t.Fatal(err)
	}
	before := stateOf(f.bank)
	rejected, replays := mRejectedSigs.Value(), mTransferReplays.Value()

	forged := signedTransfer(f.bob, "alice", "bob", Credit, "fresh") // wrong signer
	tampered := signedTransfer(f.alice, "alice", "bob", Credit, "fresh2")
	tampered.Amount = 2 * Credit
	replay := signedTransfer(f.bob, "alice", "bob", Credit, "paid") // spent nonce, bad signature
	race(func(i int) {
		for _, req := range []TransferRequest{forged, tampered, replay} {
			if r, err := f.bank.Transfer(req); !errors.Is(err, ErrBadAuthorization) {
				t.Errorf("transfer %q: got %+v, %v; want ErrBadAuthorization", req.Nonce, r, err)
			}
		}
		if err := f.bank.PrepareTransfer(forged); !errors.Is(err, ErrBadAuthorization) {
			t.Errorf("prepare: %v, want ErrBadAuthorization", err)
		}
	})

	if after := stateOf(f.bank); !reflect.DeepEqual(after, before) {
		t.Errorf("rejected requests changed the bank:\n before %+v\n after  %+v", before, after)
	}
	if got := mRejectedSigs.Value() - rejected; got != 4*racers {
		t.Errorf("rejected signatures counted %d, want %d", got, 4*racers)
	}
	if got := mTransferReplays.Value() - replays; got != 0 {
		t.Errorf("a badly signed replay was answered as a replay %d times", got)
	}
}

func TestConcurrentTransfersRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	f := newDurableFixture(t, dir, 64) // snapshots land mid-run too
	if _, err := f.bank.CreateAccount("alice", f.alice.Public()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.bank.CreateAccount("bob", f.bob.Public()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []AccountID{"alice", "bob"} {
		if err := f.bank.Deposit(id, 5*Credit, "grant"); err != nil {
			t.Fatal(err)
		}
	}
	total := f.bank.TotalMoney()

	var (
		mu   sync.Mutex
		acks = map[string]Receipt{}
	)
	stop := make(chan struct{})
	watched := watchTotal(t, f.bank, total, stop)
	race(func(g int) {
		for i := 0; i < 40; i++ {
			var req TransferRequest
			nonce := fmt.Sprintf("g%d-%d", g, i)
			if (g+i)%2 == 0 {
				req = signedTransfer(f.alice, "alice", "bob", Amount(i+1)*Millicredit, nonce)
			} else {
				req = signedTransfer(f.bob, "bob", "alice", Amount(i+1)*Millicredit, nonce)
			}
			r, err := f.bank.Transfer(req)
			if errors.Is(err, ErrInsufficientFunds) {
				continue
			}
			if err != nil {
				t.Errorf("transfer %s: %v", nonce, err)
				continue
			}
			mu.Lock()
			acks[nonce] = r
			mu.Unlock()
		}
	})
	close(stop)
	<-watched
	if len(acks) == 0 {
		t.Fatal("no transfer applied")
	}
	balances := stateOf(f.bank).balances
	f.close(t)

	f.reopen(t, dir, 64)
	defer f.close(t)
	if got := stateOf(f.bank).balances; !reflect.DeepEqual(got, balances) {
		t.Errorf("recovered balances %v, want %v", got, balances)
	}
	if got := f.bank.TotalMoney(); got != total {
		t.Errorf("recovered total %v, want %v", got, total)
	}
	key := f.bank.PublicKey()
	for nonce, want := range acks {
		f.bank.mu.Lock()
		got, ok := f.bank.receipts[nonce]
		f.bank.mu.Unlock()
		if !ok || !sameReceipt(got, want) {
			t.Errorf("receipt %s: recovered %+v, acknowledged %+v", nonce, got, want)
		}
		if !VerifyReceipt(key, got) {
			t.Errorf("recovered receipt %s does not verify", nonce)
		}
	}
}
