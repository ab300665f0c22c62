package main

import (
	"encoding/base64"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/httpapi"
)

// useTempOut points the benchmark's output directory at a test directory.
func useTempOut(t *testing.T) {
	t.Helper()
	prev := outDir
	outDir = t.TempDir()
	t.Cleanup(func() { outDir = prev })
}

func TestSmokeWorkloadsPassTheirChecks(t *testing.T) {
	useTempOut(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 3, seconds: 0.5, small: true}
			if traced {
				cfg.rec = newRecorder()
			}
			o, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if len(o.problems) > 0 {
				t.Fatalf("%s traced=%v: checks failed: %v", name, traced, o.problems)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", name, traced, o.attempted, o.failed)
			}
			for metric := range metricUnits {
				if v, ok := o.e2e[metric]; !ok || !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", name, traced, metric, v)
				}
			}
			if traced && len(o.layers) == 0 {
				t.Errorf("%s: traced run reported no layer metrics", name)
			}
		}
	}
}

// smallBank starts a smoke-sized bank and drives it briefly.
func smallBank(t *testing.T) (*bankServer, *bankInputs, *loadResult) {
	t.Helper()
	p := bankDefaults(true)
	in, err := makeBankInputs(5, p, 600)
	if err != nil {
		t.Fatal(err)
	}
	history, dir := filepath.Join(t.TempDir(), "history"), filepath.Join(t.TempDir(), "wal")
	if err := writeHistory(history, in, 5, p.history); err != nil {
		t.Fatal(err)
	}
	if err := copyDir(history, dir); err != nil {
		t.Fatal(err)
	}
	s, err := startBank(dir, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	load := drive(s.url, in, p, 0.3, nil, &speedGauge{})
	if len(load.errs) > 0 || len(load.samples) == 0 {
		s.close()
		t.Fatalf("load failed: %v (%d samples)", load.errs, len(load.samples))
	}
	return s, in, load
}

func TestReceiptCheckCatchesTamperedSignature(t *testing.T) {
	s, in, load := smallBank(t)
	defer s.close()
	key, err := fetchKey(s.url + publicKeyRoute)
	if err != nil {
		t.Fatal(err)
	}
	clean := newOutcome()
	checkReceipts(clean, key, in, load.samples)
	if len(clean.problems) != 0 {
		t.Fatalf("untampered receipts failed the check: %v", clean.problems)
	}

	for i, body := range load.samples {
		var w httpapi.ReceiptWire
		if err := json.Unmarshal(body, &w); err != nil {
			t.Fatal(err)
		}
		sig, _ := base64.RawURLEncoding.DecodeString(w.BankSig)
		sig[0] ^= 1
		w.BankSig = base64.RawURLEncoding.EncodeToString(sig)
		if load.samples[i], err = json.Marshal(w); err != nil {
			t.Fatal(err)
		}
		break
	}
	tampered := newOutcome()
	checkReceipts(tampered, key, in, load.samples)
	if len(tampered.problems) != 1 || !strings.Contains(tampered.problems[0], "does not verify") {
		t.Fatalf("tampered signature: problems = %v", tampered.problems)
	}
}

func TestRecoveryCheckCatchesTruncatedWAL(t *testing.T) {
	s, in, load := smallBank(t)
	balances := map[bank.AccountID]bank.Amount{}
	for _, id := range in.ids {
		balances[id], _ = s.bank.Balance(id)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	clean := newOutcome()
	checkRecovery(clean, s.dir, in, load.acked, balances)
	if len(clean.problems) != 0 {
		t.Fatalf("intact WAL failed the check: %v", clean.problems)
	}

	logs, _ := filepath.Glob(filepath.Join(s.dir, "wal-*.log"))
	if len(logs) == 0 {
		t.Fatal("no WAL segment")
	}
	last := logs[len(logs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-40); err != nil {
		t.Fatal(err)
	}
	truncated := newOutcome()
	checkRecovery(truncated, s.dir, in, load.acked, balances)
	if len(truncated.problems) == 0 {
		t.Fatal("truncated WAL passed the recovery check")
	}
}

func TestMarketCheckCatchesSkippedSettlement(t *testing.T) {
	p := marketDefaults(true)
	p.skipSettle = "esc-00000005"
	o, err := runMarket(runConfig{seed: 2, seconds: 0.1, small: true}, p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pr := range o.problems {
		found = found || strings.Contains(pr, "escrow accounts not empty")
	}
	if !found || o.failed == 0 {
		t.Fatalf("skipped settlement: failed %d, problems %v", o.failed, o.problems)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"crypto/internal/fips140/edwards25519.(*Point).ScalarMult", "crypto/ed25519.Verify",
			"tycoongrid/internal/pki.Verify", "tycoongrid/internal/bank.(*Bank).transferLocked"}, "pki"},
		{[]string{"sort.insertionSort", "tycoongrid/internal/agent.(*Agent).jobIDs"}, "agent"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"tycoongrid/internal/strategy.(*Portfolio).Pick", "main.main"}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
