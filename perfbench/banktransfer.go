package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tycoongrid/internal/bank"
	"tycoongrid/internal/durable"
	"tycoongrid/internal/httpapi"
	"tycoongrid/internal/metrics"
	"tycoongrid/internal/pki"
	"tycoongrid/internal/sim"
)

// bank-transfer: a closed loop of two clients posting owner-signed
// transfers over loopback TCP to the bankd serving stack (ObservedMux over
// BankService) with the WAL attached at bankd's default fsync=interval. The
// bank verifies and signs under its one mutex and journals every receipt, so
// this workload carries the bank lock and the WAL; it bypasses the auction,
// the market plane, the grid and the predictors.

type bankParams struct {
	accounts  int
	clients   int
	setupReps int // set-ups per run; setup_s is their median
	history   int // internal moves in the prior ledger every set-up recovers
	// perSecond fixes the transfers a run sends: perSecond per --seconds,
	// about what the stack sustains on two cores. A fixed count leaves the
	// bank in the same final state on every run, so its live heap and WAL
	// snapshots repeat; the loop still stops at twice --seconds.
	perSecond float64
	sampleOne int // one response in sampleOne keeps its receipt for the signature check
}

func bankDefaults(small bool) bankParams {
	p := bankParams{accounts: 64, clients: 2, setupReps: 15, history: 40000, perSecond: 5500, sampleOne: 40}
	if small {
		p.setupReps, p.history, p.sampleOne = 2, 500, 4
	}
	return p
}

const (
	bankSync       = durable.SyncInterval // bankd's default -fsync
	traceHeader    = "X-Perfbench-Trace"
	parentHeader   = "X-Perfbench-Parent"
	bankFundingCr  = 1_000_000
	bankMaxAmount  = 1000 // base units per transfer, far below any balance
	handlerSpan    = "httpapi.handler"
	requestSpan    = "client.request"
	transferRoute  = "/transfers"
	publicKeyRoute = "/publickey"
)

// bankInputs are generated and signed from the seed before anything is
// timed, so client signing never competes with the server for the cores.
type bankInputs struct {
	bankID  *pki.Identity
	owners  []*pki.Identity
	ids     []bank.AccountID
	ownerOf map[bank.AccountID]*pki.Identity
	funding bank.Amount // deposited into each account in the prior ledger
	grant   bank.Amount // deposited into each account at set-up
	reqs    []bank.TransferRequest
	bodies  [][]byte
}

// seedKey derives a 32-byte key seed from the run seed and a label.
func seedKey(seed int64, label string) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("perfbench/%d/%s", seed, label)))
}

func identity(seed int64, label string) (*pki.Identity, error) {
	ca, err := pki.NewDeterministicCA(pki.DN("/O=Grid/CN=Perfbench CA "+label), seedKey(seed, "ca/"+label))
	if err != nil {
		return nil, err
	}
	return ca.IssueDeterministic(pki.DN("/O=Grid/CN="+label), seedKey(seed, label))
}

func makeBankInputs(seed int64, p bankParams, n int) (*bankInputs, error) {
	in := &bankInputs{
		funding: bank.Amount(bankFundingCr) * bank.Credit,
		grant:   bank.Amount(bankFundingCr/10) * bank.Credit,
		ownerOf: make(map[bank.AccountID]*pki.Identity, p.accounts),
		reqs:    make([]bank.TransferRequest, n),
		bodies:  make([][]byte, n),
	}
	var err error
	if in.bankID, err = identity(seed, "bank"); err != nil {
		return nil, err
	}
	for i := 0; i < p.accounts; i++ {
		id := bank.AccountID(fmt.Sprintf("acct%03d", i))
		owner, err := identity(seed, string(id))
		if err != nil {
			return nil, err
		}
		in.ids = append(in.ids, id)
		in.owners = append(in.owners, owner)
		in.ownerOf[id] = owner
	}
	src := rand.New(rand.NewPCG(uint64(seed), 0x62616e6b))
	for i := range in.reqs {
		from := src.IntN(p.accounts)
		to := (from + 1 + src.IntN(p.accounts-1)) % p.accounts
		in.reqs[i] = bank.TransferRequest{
			From:   in.ids[from],
			To:     in.ids[to],
			Amount: bank.Amount(1 + src.IntN(bankMaxAmount)),
			Nonce:  fmt.Sprintf("bt-%d-%08d", seed, i),
		}
	}
	// Signing dominates input generation; split it over the two cores.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 2 {
				r := &in.reqs[i]
				r.Sig = in.ownerOf[r.From].Sign(r.SigningBytes())
				in.bodies[i], errs[g] = json.Marshal(httpapi.TransferWire{
					From: string(r.From), To: string(r.To), Amount: r.Amount.String(),
					Nonce: r.Nonce, Sig: base64.RawURLEncoding.EncodeToString(r.Sig),
				})
				if errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return in, errors.Join(errs...)
}

// bankServer is one running bankd stack: durable store, bank, listener.
type bankServer struct {
	dir   string
	store *durable.Store
	bank  *bank.Bank
	srv   *http.Server
	url   string
	done  chan error
}

// openBank opens the store in dir and recovers it into a fresh bank.
func openBank(dir string, in *bankInputs) (*durable.Store, *bank.Bank, error) {
	store, err := durable.Open(dir, durable.Options{Sync: bankSync})
	if err != nil {
		return nil, nil, err
	}
	b := bank.New(in.bankID, sim.WallClock{})
	if _, err := b.AttachDurability(store, 0); err != nil {
		store.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", dir, err)
	}
	return store, b, nil
}

// writeHistory journals the bank's prior ledger into dir: the accounts are
// created and funded, then moves runs of internal moves between them. Every
// set-up recovers this directory, as bankd does on restart.
func writeHistory(dir string, in *bankInputs, seed int64, moves int) error {
	store, b, err := openBank(dir, in)
	if err != nil {
		return err
	}
	for i, id := range in.ids {
		if _, err := b.CreateAccount(id, in.owners[i].Public()); err != nil {
			store.Close()
			return err
		}
		if err := b.Deposit(id, in.funding, "perfbench allocation"); err != nil {
			store.Close()
			return err
		}
	}
	src := rand.New(rand.NewPCG(uint64(seed), 0x686973746f7279))
	for i := 0; i < moves; i++ {
		from := src.IntN(len(in.ids))
		to := (from + 1 + src.IntN(len(in.ids)-1)) % len(in.ids)
		amount := bank.Amount(1 + src.IntN(bankMaxAmount))
		if err := b.MoveInternal(in.owners[from], in.ids[from], in.ids[to], amount, bank.EntryTransfer, "history"); err != nil {
			store.Close()
			return err
		}
	}
	return store.Close()
}

// copyDir replaces dst with a copy of the regular files in src.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// startBank is the set-up setup_s times: store open and recovery of the
// prior ledger in dir, the day's grant to every account, and the HTTP
// server listening on loopback.
func startBank(dir string, in *bankInputs, wrap func(http.Handler) http.Handler) (*bankServer, error) {
	store, b, err := openBank(dir, in)
	if err != nil {
		return nil, err
	}
	for _, id := range in.ids {
		if err := b.Deposit(id, in.grant, "perfbench grant"); err != nil {
			store.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	h := httpapi.ObservedMux("bankd", httpapi.NewBankService(b))
	if wrap != nil {
		h = wrap(h)
	}
	s := &bankServer{
		dir: dir, store: store, bank: b,
		srv:  httpapi.NewServer(ln.Addr().String(), h),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the server, waits for Serve to return, and closes the store,
// which flushes and fsyncs every staged record.
func (s *bankServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.store.Close())
}

// handlerSpans wraps the handler given to http.Server with a span per
// request, parented to the client span named in the request headers.
func handlerSpans(rec *recorder) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := rec.now()
			next.ServeHTTP(w, r)
			end := rec.now()
			trace, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
			parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
			if trace != 0 {
				rec.add(trace, 0, parent, handlerSpan, start, end)
			}
		})
	}
}

// loadResult is what the closed loop saw.
type loadResult struct {
	sent    int
	acked   []bool         // by request index
	ops     []opSample     // every attempted request
	windows []float64      // duration of each window of load, seconds
	samples map[int][]byte // response bodies kept for the signature check
	errs    map[string]int // failure causes
	elapsed float64        // seconds of load
}

// drive runs the closed loop in windows of statWindow seconds: each client
// sends its next request only after the previous one completes. Between
// windows the load pauses while the gauge samples the machine's speed. The
// loop ends when the inputs run out or after twice seconds of load.
func drive(url string, in *bankInputs, p bankParams, seconds float64, rec *recorder, gauge *speedGauge) *loadResult {
	tr := &http.Transport{MaxConnsPerHost: p.clients, MaxIdleConnsPerHost: p.clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}

	n := len(in.bodies)
	res := &loadResult{acked: make([]bool, n), samples: map[int][]byte{}, errs: map[string]int{}}
	ops := make([][]opSample, p.clients)
	samples := make([]map[int][]byte, p.clients)
	errs := make([]map[string]int, p.clients)
	for g := range ops {
		ops[g] = make([]opSample, 0, n/p.clients+1)
		samples[g] = map[int][]byte{}
		errs[g] = map[string]int{}
	}
	var next atomic.Int64
	for w := 0; int(next.Load()) < n && res.elapsed < 2*seconds; w++ {
		if w > 0 {
			gauge.sample()
		}
		start := time.Now()
		end := start.Add(time.Duration(statWindow * float64(time.Second)))
		var wg sync.WaitGroup
		for g := 0; g < p.clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for time.Now().Before(end) {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					body, ms, err := post(client, url+transferRoute, in.bodies[i], rec, uint64(i+1))
					ops[g] = append(ops[g], opSample{window: w, ms: ms, ok: err == nil})
					if err != nil {
						errs[g][err.Error()]++
						continue
					}
					res.acked[i] = true
					if i%p.sampleOne == 0 {
						samples[g][i] = body
					}
				}
			}(g)
		}
		wg.Wait()
		d := since(start)
		res.windows = append(res.windows, d)
		res.elapsed += d
	}
	res.sent = int(min(next.Load(), int64(n)))
	for g := range ops {
		res.ops = append(res.ops, ops[g]...)
		for k, v := range samples[g] {
			res.samples[k] = v
		}
		for k, v := range errs[g] {
			res.errs[k] += v
		}
	}
	return res
}

// post sends one transfer and returns the response body of a 200 and the
// round trip in ms, from building the request to reading the last body
// byte. Any other status or a transport error is an error.
func post(client *http.Client, url string, payload []byte, rec *recorder, trace uint64) ([]byte, float64, error) {
	start := time.Now()
	var spanStart int64
	var id uint64
	if rec != nil {
		spanStart, id = rec.now(), rec.newID()
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rec != nil {
		req.Header.Set(traceHeader, strconv.FormatUint(trace, 10))
		req.Header.Set(parentHeader, strconv.FormatUint(id, 10))
	}
	resp, err := client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if rec != nil {
		rec.add(trace, id, 0, requestSpan, spanStart, rec.now())
	}
	if err != nil {
		return nil, ms, fmt.Errorf("transport: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, ms, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, ms, nil
}

func runBankTransfer(cfg runConfig) (*outcome, error) {
	p := bankDefaults(cfg.small)
	o := newOutcome()
	in, err := makeBankInputs(cfg.seed, p, int(p.perSecond*cfg.seconds)+100)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	dir := filepath.Join(outDir, "wal", fmt.Sprintf("bank-transfer-%d-%d", cfg.seed, os.Getpid()))
	history := dir + "-history"
	defer os.RemoveAll(dir)
	defer os.RemoveAll(history)
	if err := os.RemoveAll(history); err != nil {
		return nil, err
	}
	if err := writeHistory(history, in, cfg.seed, p.history); err != nil {
		return nil, fmt.Errorf("prior ledger: %w", err)
	}

	var wrap func(http.Handler) http.Handler
	if cfg.rec != nil {
		wrap = handlerSpans(cfg.rec)
	}
	gauge := &speedGauge{}
	var setups []float64
	var s *bankServer
	for r := 0; r < p.setupReps; r++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		if err := copyDir(history, dir); err != nil {
			return nil, err
		}
		gauge.sample()
		runtime.GC() // each set-up starts from a collected heap
		t := time.Now()
		if s, err = startBank(dir, in, wrap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, since(t))
	}
	open := true
	defer func() {
		if open {
			s.close()
		}
	}()

	recordsBefore := s.store.Records()
	heapBefore := liveHeapMB()
	snapBefore := metrics.Default().Snapshot()
	rtBefore := readRT()
	cpuBefore := cpuTime()
	load := drive(s.url, in, p, cfg.seconds, cfg.rec, gauge)
	cpu := cpuTime() - cpuBefore
	rtAfter := readRT()
	snapAfter := metrics.Default().Snapshot()
	heapLoaded := liveHeapMB()

	acked := 0
	for _, a := range load.acked {
		if a {
			acked++
		}
	}
	o.attempted, o.failed = int64(load.sent), int64(load.sent-acked)
	if acked == 0 {
		return nil, fmt.Errorf("no transfer acknowledged: %v", load.errs)
	}
	if load.sent < len(in.bodies) {
		o.notef("the loop stopped at its deadline after %d of %d requests", load.sent, len(in.bodies))
	}
	o.check(o.failed == 0, "%d of %d transfers were not answered 200: %v", o.failed, load.sent, load.errs)

	// The inputs are garbage from here on; the bank, its store and the
	// server stay reachable for the live-heap read.
	in.bodies = nil
	o.e2e["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(s)

	ws := windowStats(load.ops, load.windows)
	o.e2e["throughput_per_s"] = ws.throughput
	o.e2e["latency_p50_ms"] = ws.p50
	o.e2e["latency_tail_ms"] = ws.tail
	o.e2e["cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(acked)
	o.e2e["setup_s"] = median(setups)
	scaleTimings(o, gauge)
	o.notef("closed loop: %d clients, 1 connection each, %d accounts, WAL fsync=%s, snapshot every %d records",
		p.clients, p.accounts, bankSync, bank.DefaultSnapshotEvery)
	o.notef("throughput and latencies are medians over %d windows of %g s; latency_tail_ms is p%d, with %d to %d of the window's round trips beyond it (%d round trips in all)",
		ws.windows, statWindow, int(tailQ*100), ws.minBeyond, ws.maxBeyond, len(load.ops))
	o.notef("setup_s is the median of %d set-ups: store open and recovery of a %d-record prior ledger, a deposit to each of %d accounts, listener up",
		p.setupReps, p.history+2*p.accounts, p.accounts)
	o.notef("cpu_us_per_op is client and server CPU (one process) per acknowledged transfer;" +
		" live_heap_mb includes the signed requests the recovery check replays")

	// Output checks, outside the timed section.
	key, err := fetchKey(s.url + publicKeyRoute)
	o.check(err == nil, "GET /publickey: %v", err)
	if err == nil {
		checkReceipts(o, key, in, load.samples)
	}
	checkConserved(o, s.bank, in)
	balances := make(map[bank.AccountID]bank.Amount, len(in.ids))
	for _, id := range in.ids {
		if balances[id], err = s.bank.Balance(id); err != nil {
			return nil, err
		}
	}
	fsyncs := histogramCount(snapAfter, "wal_fsync_seconds") - histogramCount(snapBefore, "wal_fsync_seconds")
	records := s.store.Records() - recordsBefore
	open = false
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("closing bank: %w", err)
	}
	checkRecovery(o, dir, in, load.acked, balances)

	if cfg.rec != nil {
		walBytes, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		o.check(fsyncs > 0, "registry counter wal_fsync_seconds_count did not move")
		o.check(records > 0, "durable.Store.Records did not move")
		o.layer("durable.fsyncs", float64(fsyncs))
		o.layer("durable.records_per_op", float64(records)/float64(acked))
		o.layer("durable.wal_bytes_per_op", float64(walBytes)/float64(acked))
		o.layer("bank.heap_bytes_per_op", (heapLoaded-heapBefore)*(1<<20)/float64(acked))
		addRuntimeLayers(o, "bank-transfer", rtBefore, rtAfter, int64(acked))
		self := cfg.rec.selfTimes()
		o.check(len(self[handlerSpan]) > 0, "no %s spans recorded", handlerSpan)
		o.layer("httpapi.handler_us", median(self[handlerSpan]))
		o.layer("httpapi.wire_us", median(self[requestSpan]))
		if err := bankLayers(o, in, history, dir+"-layers"); err != nil {
			return nil, err
		}
		o.layer("bank-transfer.residual_us", o.layers["httpapi.handler_us"]-o.layers["bank.transfer_us"])
		o.notef("residual: handler time bank.Transfer does not cover (mux, middleware, JSON codec) = %.1f us",
			o.layers["bank-transfer.residual_us"])
	}
	return o, nil
}

func fetchKey(url string) (ed25519.PublicKey, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var pk httpapi.PublicKeyResponse
	if err := json.NewDecoder(resp.Body).Decode(&pk); err != nil {
		return nil, err
	}
	raw, err := base64.RawURLEncoding.DecodeString(pk.Key)
	if err != nil || len(raw) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("bad key %q", pk.Key)
	}
	return ed25519.PublicKey(raw), nil
}

// checkReceipts verifies the bank signature of every sampled receipt
// against the published key, and that each receipt is for its request.
func checkReceipts(o *outcome, key ed25519.PublicKey, in *bankInputs, samples map[int][]byte) {
	o.check(len(samples) > 0, "no receipts sampled")
	for i, body := range samples {
		var w httpapi.ReceiptWire
		if err := json.Unmarshal(body, &w); err != nil {
			o.check(false, "receipt %d: %v", i, err)
			continue
		}
		amount, err1 := bank.ParseAmount(w.Amount)
		sig, err2 := base64.RawURLEncoding.DecodeString(w.BankSig)
		r := bank.Receipt{
			TransferID: w.TransferID, From: bank.AccountID(w.From), To: bank.AccountID(w.To),
			Amount: amount, At: w.At, BankSig: sig,
		}
		req := in.reqs[i]
		o.check(err1 == nil && err2 == nil && r.TransferID == req.Nonce && r.From == req.From &&
			r.To == req.To && r.Amount == req.Amount, "receipt %d does not match its request", i)
		o.check(bank.VerifyReceipt(key, r), "receipt %d: bank signature does not verify", i)
	}
}

// checkConserved: transfers move money, never make or destroy it.
func checkConserved(o *outcome, b *bank.Bank, in *bankInputs) {
	total, held, landed := b.Totals()
	want := bank.Amount(len(in.ids)) * (in.funding + in.grant)
	o.check(total == want && held == 0 && landed == 0,
		"money not conserved: total %v held %v landed %v, want %v", total, held, landed, want)
}

// checkRecovery re-opens the WAL directory into a fresh bank. Every balance
// must come back, and every acknowledged request must replay as the stored
// receipt (bank_transfer_replays_total counts each) without moving money.
func checkRecovery(o *outcome, dir string, in *bankInputs, acked []bool, balances map[bank.AccountID]bank.Amount) {
	store, b, err := openBank(dir, in)
	if err != nil {
		o.check(false, "re-opening the WAL: %v", err)
		return
	}
	defer store.Close()
	lost := 0
	for _, id := range in.ids {
		if got, err := b.Balance(id); err != nil || got != balances[id] {
			o.check(false, "recovered balance of %s is %v, want %v (%v)", id, got, balances[id], err)
			lost++
		}
	}
	if lost > 0 {
		return
	}
	replaysBefore := metrics.Default().CounterValue("bank_transfer_replays_total")
	var wg sync.WaitGroup
	bad := make([]int, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(acked); i += 2 {
				if !acked[i] {
					continue
				}
				if _, err := b.Transfer(in.reqs[i]); err != nil {
					bad[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	n := 0
	for _, a := range acked {
		if a {
			n++
		}
	}
	replays := metrics.Default().CounterValue("bank_transfer_replays_total") - replaysBefore
	o.check(bad[0]+bad[1] == 0 && replays == uint64(n),
		"after recovery %d of %d acknowledged nonces replayed as stored receipts (%d errors)", replays, n, bad[0]+bad[1])
	for _, id := range in.ids {
		got, _ := b.Balance(id)
		o.check(got == balances[id], "replaying acknowledged requests moved money on %s", id)
	}
}

// bankLayers times the bank and pki calls in process, on the run's own
// signed requests, against a fresh WAL-backed bank.
func bankLayers(o *outcome, in *bankInputs, history, dir string) error {
	if err := copyDir(history, dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, b, err := openBank(dir, in)
	if err != nil {
		return err
	}
	defer store.Close()
	n := min(4000, len(in.reqs)/3)
	lat := make([]float64, n)
	receipts := make([]bank.Receipt, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		r, err := b.Transfer(in.reqs[i])
		lat[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		if err != nil {
			return fmt.Errorf("in-process transfer: %w", err)
		}
		receipts[i] = r
	}
	one := float64(n) / since(start)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	start = time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := n + g*n; i < n+(g+1)*n; i++ {
				if _, err := b.Transfer(in.reqs[i]); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	wg.Wait()
	two := float64(2*n) / since(start)
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("in-process transfer: %w", err)
	}
	o.layer("bank.transfer_us", median(lat))
	o.layer("bank.scaling_2v1", two/one)

	verify := make([]float64, n)
	sign := make([]float64, n)
	for i := 0; i < n; i++ {
		r := in.reqs[i]
		msg := r.SigningBytes()
		key := in.ownerOf[r.From].Public()
		t := time.Now()
		ok := pki.Verify(key, msg, r.Sig)
		verify[i] = float64(time.Since(t).Nanoseconds()) / 1e3
		if !ok {
			return fmt.Errorf("request %d does not verify", i)
		}
		msg = receipts[i].SigningBytes()
		t = time.Now()
		_ = in.bankID.Sign(msg)
		sign[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	o.layer("pki.verify_us", median(verify))
	o.layer("pki.sign_us", median(sign))
	return nil
}
