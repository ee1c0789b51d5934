package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The generator is open loop: arrivals follow a seeded Poisson schedule
// regardless of how fast the tier answers. At most maxOutstanding requests
// of each class (single, batch) are in flight, one per CPU of the reference
// host; separate slots keep single requests from queueing in the generator
// behind batches that take ten times longer. Latency counts from each
// arrival's due time, so a stall also charges the requests queued behind it.
// Only the capacity phase of a traced run is closed loop (see capacity).
const (
	maxOutstanding = 2
	// dropAfter is how late an arrival may get before the generator gives up
	// sending it; an unsent arrival counts as a failure.
	dropAfter = time.Second
	// listN is the list length every request asks for.
	listN = 10
	// capacityWindows is how many windows the capacity phase is cut into.
	capacityWindows = 6
)

// arrival is one scheduled request.
type arrival struct {
	due   time.Duration
	batch bool
	users []int
	path  string // request URI
	body  []byte // batch payload
}

// picker draws users from a Zipf law (s = 1.1) over a popularity ranking.
// The ranking is a permutation fixed with the dataset, so the hottest users
// are spread over the communities and are the same users in every run;
// the run's rng draws the requests.
type picker struct {
	zipf *rand.Zipf
	perm []int
}

func newPicker(rng *rand.Rand, users int) *picker {
	perm := rand.New(rand.NewSource(datasetSeed)).Perm(users)
	return &picker{zipf: rand.NewZipf(rng, 1.1, 1, uint64(users-1)), perm: perm}
}

func (p *picker) next() int { return p.perm[p.zipf.Uint64()] }

// schedule draws a phase's arrivals: Poisson at rate per second for dur,
// each a batch with probability wl.batchShare.
func schedule(seed int64, rate float64, dur time.Duration, wl workload, tokens []string) []arrival {
	rng := rand.New(rand.NewSource(seed))
	pick := newPicker(rng, len(tokens))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		a := arrival{due: due}
		if rng.Float64() < wl.batchShare {
			a.batch = true
			a.users = make([]int, wl.batchSize)
			toks := make([]string, wl.batchSize)
			for i := range a.users {
				a.users[i] = pick.next()
				toks[i] = tokens[a.users[i]]
			}
			a.path = "/recommend/batch"
			a.body, _ = json.Marshal(struct {
				Users []string `json:"users"`
				N     int      `json:"n"`
			}{toks, listN})
		} else {
			u := pick.next()
			a.users = []int{u}
			a.path = "/recommend?user=" + tokens[u] + "&n=" + strconv.Itoa(listN)
		}
		out = append(out, a)
	}
}

// outcome is what happened to one arrival.
type outcome struct {
	woke, sent, done time.Duration // since phase start
	unsent           bool
	transportErr     bool
	status           int
	body             []byte
	traceID          string
	// vLo and vHi bound the release versions that may have served the
	// request (see versions).
	vLo, vHi uint64
}

// target is where the generator sends requests.
type target struct {
	base   string
	client *http.Client
	ver    *versions
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxIdleConns:        16,
		MaxIdleConnsPerHost: 8,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
}

// runPhase sends the arrivals on schedule and waits for every answer. salt
// distinguishes the trace ids of different phases.
func runPhase(tgt *target, arr []arrival, salt uint64) []outcome {
	outs := make([]outcome, len(arr))
	singleSlots := make(chan struct{}, maxOutstanding)
	batchSlots := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range arr {
		a, o := &arr[i], &outs[i]
		if d := a.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o.woke = time.Since(start)
		slots := singleSlots
		if a.batch {
			slots = batchSlots
		}
		wait := a.due + dropAfter - o.woke
		if wait <= 0 {
			o.unsent = true
			continue
		}
		select {
		case slots <- struct{}{}:
		default:
			t := time.NewTimer(wait)
			select {
			case slots <- struct{}{}:
				t.Stop()
			case <-t.C:
				o.unsent = true
				continue
			}
		}
		o.traceID = fmt.Sprintf("%016x%016x", salt, uint64(i)+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			send(tgt, a, o, start)
		}()
	}
	wg.Wait()
	return outs
}

func send(tgt *target, a *arrival, o *outcome, start time.Time) {
	var req *http.Request
	var err error
	if a.batch {
		req, err = http.NewRequest(http.MethodPost, tgt.base+a.path, bytes.NewReader(a.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, tgt.base+a.path, nil)
	}
	if err != nil {
		o.transportErr = true
		return
	}
	req.Header.Set("Traceparent", "00-"+o.traceID+"-0000000000000001-01")
	if tgt.ver != nil {
		o.vLo = tgt.ver.cur.Load()
	}
	o.sent = time.Since(start)
	resp, err := tgt.client.Do(req)
	if err != nil {
		o.transportErr = true
		o.done = time.Since(start)
		return
	}
	o.body, err = io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	o.done = time.Since(start)
	if tgt.ver != nil {
		o.vHi = tgt.ver.next.Load()
	}
	o.status = resp.StatusCode
	if err != nil {
		o.transportErr = true
	}
}

// rows splits a successful response into its per-user rows: the body
// itself for a single request, the results array for a batch. ok is false
// for anything the benchmark counts as a failure: a transport error, a
// non-200 status, a degraded or truncated batch, or a row carrying an error.
func rows(a *arrival, o *outcome) (out []json.RawMessage, ok bool) {
	if o.unsent || o.transportErr || o.status != http.StatusOK {
		return nil, false
	}
	if !a.batch {
		return []json.RawMessage{o.body}, true
	}
	var br struct {
		Results  []json.RawMessage `json:"results"`
		Degraded bool              `json:"degraded"`
	}
	if err := json.Unmarshal(o.body, &br); err != nil || br.Degraded || len(br.Results) != len(a.users) {
		return nil, false
	}
	for _, r := range br.Results {
		if bytes.Contains(r, []byte(`"error"`)) {
			return nil, false
		}
	}
	return br.Results, true
}

// phaseStats summarizes one phase.
type phaseStats struct {
	single, batch []float64 // latency from due time, ms, successful requests
	singleAll     []float64 // single latencies with failures as +Inf
	rtt           []float64 // client round trip (sent to done), ms, successful singles
	late, queue   []float64 // generator lateness and slot wait, ms
	attempted     int
	failed        int
}

func summarize(arr []arrival, outs []outcome) phaseStats {
	var ps phaseStats
	for i := range arr {
		a, o := &arr[i], &outs[i]
		ps.attempted++
		ps.late = append(ps.late, ms(o.woke-a.due))
		if !o.unsent {
			ps.queue = append(ps.queue, ms(o.sent-o.woke))
		}
		_, ok := rows(a, o)
		lat := ms(o.done - a.due)
		switch {
		case !ok:
			ps.failed++
			if !a.batch {
				ps.singleAll = append(ps.singleAll, math.Inf(1))
			}
		case a.batch:
			ps.batch = append(ps.batch, lat)
		default:
			ps.single = append(ps.single, lat)
			ps.singleAll = append(ps.singleAll, lat)
			ps.rtt = append(ps.rtt, ms(o.done-o.sent))
		}
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// capacity measures the tier's saturation throughput. maxOutstanding
// clients each send the next single-user request as soon as the previous
// answer arrives, for budget cut into capacityWindows windows; the result is
// the median window's successful answers per second. It needs no latency
// limit and no search over rates. It follows the host's speed, which drifts
// on a shared host, so it is reported per layer and not gated. record
// receives every window's requests for verification.
func capacity(tgt *target, tokens []string, seed int64, budget time.Duration,
	record func([]arrival, []outcome)) (float64, []float64) {
	win := budget / capacityWindows
	rates := make([]float64, capacityWindows)
	for k := range rates {
		arr, outs := closedLoop(tgt, tokens, seed*7919+int64(k)+1000, win, uint64(0x1000+k))
		record(arr, outs)
		ok := 0
		for i := range arr {
			if _, good := rows(&arr[i], &outs[i]); good && outs[i].done <= win {
				ok++
			}
		}
		rates[k] = float64(ok) / win.Seconds()
	}
	return median(append([]float64(nil), rates...)), rates
}

// closedLoop keeps maxOutstanding single-user requests in flight for dur.
// Each arrival is due when its client sends it, so its latency is its round
// trip. salt distinguishes the trace ids of different phases.
func closedLoop(tgt *target, tokens []string, seed int64, dur time.Duration, salt uint64) ([]arrival, []outcome) {
	type part struct {
		arr  []arrival
		outs []outcome
	}
	var (
		mu    sync.Mutex
		pick  = newPicker(rand.New(rand.NewSource(seed)), len(tokens))
		n     uint64
		parts = make([]part, maxOutstanding)
		wg    sync.WaitGroup
	)
	start := time.Now()
	for w := range parts {
		p := &parts[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Since(start)
				if now >= dur {
					return
				}
				mu.Lock()
				u := pick.next()
				n++
				id := n
				mu.Unlock()
				a := arrival{due: now, users: []int{u},
					path: "/recommend?user=" + tokens[u] + "&n=" + strconv.Itoa(listN)}
				o := outcome{woke: now, traceID: fmt.Sprintf("%016x%016x", salt, id)}
				send(tgt, &a, &o, start)
				p.arr = append(p.arr, a)
				p.outs = append(p.outs, o)
			}
		}()
	}
	wg.Wait()
	var arr []arrival
	var outs []outcome
	for _, p := range parts {
		arr = append(arr, p.arr...)
		outs = append(outs, p.outs...)
	}
	return arr, outs
}
