package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ursa/internal/cluster"
	"ursa/internal/frontend"
	"ursa/internal/ir"
	"ursa/internal/measure"
	"ursa/internal/modsched"
	"ursa/internal/server"
	"ursa/internal/store"
	"ursa/internal/workload"
)

const (
	// serveClients is the closed loop's client count: each waits for its
	// reply before sending the next request.
	serveClients = 2
	// serveSetupReps is how many times a serve run starts the fleet and
	// warms it; the last fleet serves the measured traffic.
	serveSetupReps = 3
	// hotShare is the fraction of requests drawn from the hot set; the
	// rest are fresh blocks no cache has seen.
	hotShare = 0.85
	// shardMemBudget is each shard's memory-tier budget in bytes. It is
	// below the share of the hot set a shard owns, so part of the hot set
	// is served from the disk tier.
	shardMemBudget = 16 << 10
	// shardMeasureBudget bounds each shard's measurement cache, below
	// ursad's 128 MiB default: both shards share this one process, and at
	// the default the fresh blocks grew it past 1 GiB within a run.
	shardMeasureBudget = 16 << 20
)

// loopKernels are the hot set's software-pipelined entries: the kernels
// whose counted loop modsched pipelines at unroll 1 within a fraction of
// a second on vliw4x8.
var loopKernels = []string{"dot", "saxpy", "tridiag", "matmul4", "horner", "prefix"}

// hotSet is every kernel source on every kernel target at unroll 1, plus
// the loop entries. Its order is fixed; the skewed draw favours its head.
func hotSet(size float64) []server.CompileRequest {
	kernels := workload.Kernels()
	kernels = kernels[:scaled(len(kernels), size)]
	var reqs []server.CompileRequest
	for _, k := range kernels {
		for _, tn := range kernelTargets {
			reqs = append(reqs, server.CompileRequest{Name: k.Name + "/" + tn, Source: k.Source, Lang: "kernel",
				Unroll: 1, Machine: server.MachineSpec{Preset: tn}})
		}
	}
	for _, name := range loopKernels[:scaled(len(loopKernels), size)] {
		k := workload.KernelByName(name)
		reqs = append(reqs, server.CompileRequest{Name: name + "/loop", Source: k.Source, Lang: "kernel",
			Unroll: 1, Loop: true, Machine: server.MachineSpec{Preset: "vliw4x8"}})
	}
	return reqs
}

// fleet is an in-process ursagw router in front of two ursad shards,
// each with a memory tier and a disk tier in its own directory.
type fleet struct {
	dir    string
	shards []*httptest.Server
	router *cluster.Router
	gw     *httptest.Server
	client *http.Client
}

func startFleet(work string) (*fleet, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return nil, err
	}
	fl := &fleet{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}}
	var urls []string
	for i := 0; i < 2; i++ {
		disk, err := store.Open(fmt.Sprintf("%s/shard%d", dir, i), 0)
		if err != nil {
			fl.close()
			return nil, err
		}
		srv := server.New(server.Config{Artifacts: store.NewTiered(shardMemBudget, disk, nil), Cache: measure.NewCacheBudget(shardMeasureBudget)})
		ts := httptest.NewServer(srv.Handler())
		fl.shards = append(fl.shards, ts)
		urls = append(urls, ts.URL)
	}
	fl.router, err = cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		fl.close()
		return nil, err
	}
	fl.gw = httptest.NewServer(fl.router.Handler())
	return fl, nil
}

// close stops the router, the shards and their goroutines, and removes
// the shards' disk tiers.
func (fl *fleet) close() {
	if fl.gw != nil {
		fl.gw.Close()
	}
	if fl.router != nil {
		fl.router.Close()
	}
	for _, s := range fl.shards {
		s.Close()
	}
	fl.client.CloseIdleConnections()
	os.RemoveAll(fl.dir)
}

// post sends one compile request through the router and returns the
// decoded reply, its status and the client-side latency.
func (fl *fleet) post(body []byte) (*server.CompileResponse, int, time.Duration, error) {
	start := time.Now()
	resp, err := fl.client.Post(fl.gw.URL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, resp.StatusCode, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode, lat, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var cr server.CompileResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return nil, resp.StatusCode, lat, fmt.Errorf("decoding reply: %w", err)
	}
	return &cr, resp.StatusCode, lat, nil
}

// scrape sums the named counters over the router's and the shards'
// /metrics pages.
func (fl *fleet) scrape(names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	urls := []string{fl.gw.URL}
	for _, s := range fl.shards {
		urls = append(urls, s.URL)
	}
	for _, u := range urls {
		resp, err := fl.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, rest, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			name, _, _ = strings.Cut(name, "{")
			for _, want := range names {
				if name == want {
					v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
					if err == nil {
						out[name] += v
					}
				}
			}
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func listingOf(cr *server.CompileResponse) string {
	var sb strings.Builder
	for _, b := range cr.Blocks {
		sb.WriteString(b.Label)
		sb.WriteString(":\n")
		sb.WriteString(b.Listing)
	}
	return sb.String()
}

// firstCompiles maps each cache key to the listing of its first compile;
// every later reply for the key must carry the same listing.
type firstCompiles struct {
	mu sync.Mutex
	m  map[string]string
}

// check records the reply's listing if its key is new and reports whether
// it matches the key's first compile.
func (fc *firstCompiles) check(cr *server.CompileResponse) bool {
	if cr.Cache.Key == "" {
		return true
	}
	got := listingOf(cr)
	fc.mu.Lock()
	defer fc.mu.Unlock()
	want, ok := fc.m[cr.Cache.Key]
	if !ok {
		fc.m[cr.Cache.Key] = got
		return true
	}
	return got == want
}

// warm is a started fleet after one pass over the hot set.
type warm struct {
	fl          *fleet
	first       *firstCompiles
	words       int
	spills      int
	attempted   int
	failedNotes []string
}

func warmFleet(work string, hot [][]byte, names []string) (*warm, error) {
	fl, err := startFleet(work)
	if err != nil {
		return nil, err
	}
	w := &warm{fl: fl, first: &firstCompiles{m: map[string]string{}}}
	for i, body := range hot {
		w.attempted++
		cr, _, _, err := fl.post(body)
		if err != nil {
			w.failedNotes = append(w.failedNotes, fmt.Sprintf("warm-up %s: %v", names[i], err))
			continue
		}
		w.first.check(cr)
		w.words += cr.Stats.Words
		w.spills += cr.Stats.SpillOps
	}
	return w, nil
}

// request is one drawn request: its body, and for the traced run's probes
// the decoded request and, for fresh blocks, the generated function.
type request struct {
	id    string
	cr    server.CompileRequest
	body  []byte
	fresh *ir.Func
}

// draw picks the client's next request with rng: a hot entry with a Zipf
// skew, or the next block of the client's fresh stream on a kernel
// target, a quarter of them executed and verified by the shard. The
// fresh stream comes from a fixed seed per client, like the compile
// workloads' pools, so the compiled replies' latency spread reflects the
// fleet rather than which blocks a seed drew.
func draw(rng, fresh *rand.Rand, zipf *rand.Zipf, hot []server.CompileRequest, hotBodies [][]byte, id string) (request, error) {
	if rng.Float64() < hotShare {
		i := int(zipf.Uint64())
		return request{id: id, cr: hot[i], body: hotBodies[i]}, nil
	}
	f := workload.RandomBlock(rand.New(rand.NewSource(fresh.Int63())), 10+fresh.Intn(11), 0.05+0.95*fresh.Float64())
	cr := server.CompileRequest{Name: id, Source: f.String(),
		Machine: server.MachineSpec{Preset: kernelTargets[fresh.Intn(len(kernelTargets))]}}
	if fresh.Intn(4) == 0 {
		vals := make([]int64, 16)
		for i := range vals {
			vals[i] = rng.Int63n(1000) - 500
		}
		cr.Run = true
		cr.Init = &server.InitSpec{Ints: map[string][]int64{"A": vals}}
	}
	body, err := json.Marshal(cr)
	return request{id: id, cr: cr, body: body, fresh: f}, err
}

// clientLog is one client's record of its replies.
type clientLog struct {
	latMS, compiledMS []float64
	blocks            int
	tiers             map[string]int
	failed            []string
	attempted         int
}

func runServe(cfg *config) (*outcome, error) {
	hot := hotSet(cfg.size)
	hotBodies := make([][]byte, len(hot))
	names := make([]string, len(hot))
	for i := range hot {
		var err error
		if hotBodies[i], err = json.Marshal(hot[i]); err != nil {
			return nil, err
		}
		names[i] = hot[i].Name
	}
	reps := serveSetupReps
	if cfg.size < 1 {
		reps = 1
	}
	out := &outcome{}
	var w *warm
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			w.fl.close()
		}
		start := time.Now()
		var err error
		if w, err = warmFleet(cfg.work, hotBodies, names); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		out.attempted += w.attempted
		for _, n := range w.failedNotes {
			out.fail("%s", n)
		}
	}
	defer w.fl.close()
	out.codeCycles, out.spillOps = w.words, w.spills
	counters := []string{"ursad_shed_total", "ursagw_hedges_total", "ursagw_spillovers_total", "ursagw_coalesced_total"}
	before, err := w.fl.scrape(counters...)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	var l *layers
	if cfg.tr != nil {
		l = &layers{tiers: map[string]int{}}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	logs := make([]clientLog, serveClients)
	deadline := time.Now().Add(cfg.budget)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(c)))
			fresh := rand.New(rand.NewSource(int64(c) + 1))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
			log := &logs[c]
			log.tiers = map[string]int{}
			for n := 0; time.Now().Before(deadline); n++ {
				t0 := time.Now()
				req, err := draw(rng, fresh, zipf, hot, hotBodies, fmt.Sprintf("c%d-%d", c, n))
				if err != nil {
					log.attempted++
					log.failed = append(log.failed, err.Error())
					continue
				}
				if l != nil {
					if err := l.probeRequest(cfg.tr, req); err != nil {
						log.attempted++
						log.failed = append(log.failed, fmt.Sprintf("%s probe: %v", req.id, err))
						continue
					}
				}
				probe := time.Since(t0)
				cr, _, lat, err := w.fl.post(req.body)
				log.attempted++
				switch {
				case err != nil:
					log.failed = append(log.failed, fmt.Sprintf("%s: %v", req.id, err))
					continue
				case req.cr.Run && !cr.Stats.Verified:
					log.failed = append(log.failed, req.id+": run request answered without verified")
					continue
				case !w.first.check(cr):
					log.failed = append(log.failed, fmt.Sprintf("%s: %s reply for key %s differs from its first compile", req.id, cr.Cache.Result, cr.Cache.Key))
					continue
				}
				log.latMS = append(log.latMS, msOf(lat))
				log.blocks += len(cr.Blocks)
				log.tiers[cr.Cache.Result]++
				if cr.Cache.Result == "compiled" {
					log.compiledMS = append(log.compiledMS, cr.ElapsedMS)
				}
				if l != nil {
					l.reply(cr, msOf(lat), msOf(probe))
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)

	var latMS, compiledMS []float64
	blocks := 0
	tiers := map[string]int{}
	for _, log := range logs {
		for t, n := range log.tiers {
			tiers[t] += n
		}
		out.attempted += log.attempted
		for _, f := range log.failed {
			out.fail("%s", f)
		}
		latMS = append(latMS, log.latMS...)
		compiledMS = append(compiledMS, log.compiledMS...)
		blocks += log.blocks
	}
	after, err := w.fl.scrape(counters...)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if l != nil {
		l.shed = after["ursad_shed_total"] - before["ursad_shed_total"]
		l.hedges = after["ursagw_hedges_total"] - before["ursagw_hedges_total"]
		l.spillovers = after["ursagw_spillovers_total"] - before["ursagw_spillovers_total"]
		l.coalesc = after["ursagw_coalesced_total"] - before["ursagw_coalesced_total"]
		l.gcCycles = m1.NumGC - m0.NumGC
		out.metrics = l.metrics(cfg.tr)
		return out, nil
	}
	p90, p90at := tail(compiledMS, 90)
	p99, p99at := tail(latMS, 99)
	out.metrics = map[string]float64{
		"setup_s":        median(setups),
		"blocks_per_s":   float64(blocks) / wall.Seconds(),
		"compile_p50_ms": median(compiledMS),
		"compile_p90_ms": p90,
		"code_cycles":    float64(w.words),
		"spill_ops":      float64(w.spills),
		"peak_rss_mb":    peakRSSMB(),
		"serve_rps":      float64(len(latMS)) / wall.Seconds(),
		"serve_p50_ms":   median(latMS),
		"serve_p99_ms":   p99,
	}
	out.notes = append(out.notes,
		fmt.Sprintf("served by tier: %v", tiers),
		fmt.Sprintf("%d requests in %.1fs by %d clients; serve_p99_ms is p%.1f of %d, compile_p90_ms p%.1f of %d compiled replies; shed %g, hedges %g, spillovers %g, coalesced %g",
			len(latMS), wall.Seconds(), serveClients, p99at, len(latMS), p90at, len(compiledMS),
			after["ursad_shed_total"]-before["ursad_shed_total"], after["ursagw_hedges_total"]-before["ursagw_hedges_total"],
			after["ursagw_spillovers_total"]-before["ursagw_spillovers_total"], after["ursagw_coalesced_total"]-before["ursagw_coalesced_total"]))
	return out, nil
}

// probeRequest times, from outside the fleet, the layers a request passes
// through on the shard: lowering and the cache key for every request,
// modulo scheduling for loop entries, and for an executed fresh block
// the whole traced compile lane with its verification.
func (l *layers) probeRequest(tr *tracer, req request) error {
	var err error
	if req.cr.Lang == "kernel" {
		var u *frontend.Unit
		tr.timed("frontend.lower", req.id, -1, func() { u, err = frontend.Compile(req.cr.Source, frontend.Options{Unroll: req.cr.Unroll}) })
		if err != nil {
			return err
		}
		if req.cr.Loop {
			m, err := preset(req.cr.Machine.Preset)
			if err != nil {
				return err
			}
			tr.timed("modsched.pipeline", req.id, -1, func() { _, err = modsched.Pipeline(u.Func, m, modsched.Options{}) })
			if err != nil {
				return err
			}
		}
	}
	tr.timed("cluster.cachekey", req.id, -1, func() { _, err = req.cr.CacheKey() })
	if err != nil {
		return err
	}
	if req.fresh != nil && req.cr.Run {
		m, err := preset(req.cr.Machine.Preset)
		if err != nil {
			return err
		}
		init := ir.NewState()
		for off, v := range req.cr.Init.Ints["A"] {
			init.StoreInt("A", int64(off), v)
		}
		return l.compile(tr, job{id: req.id, block: req.fresh.Blocks[0], m: m, init: init})
	}
	return nil
}

// reply records one reply's server-side figures.
func (l *layers) reply(cr *server.CompileResponse, latMS, probeMS float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	l.tiers[cr.Cache.Result]++
	switch cr.Cache.Result {
	case "compiled":
		l.elapsedCompiled = append(l.elapsedCompiled, cr.ElapsedMS)
	case "memory", "disk":
		l.elapsedHit = append(l.elapsedHit, cr.ElapsedMS)
	}
	l.overheadMS = append(l.overheadMS, latMS-cr.ElapsedMS)
	l.probeMS = append(l.probeMS, probeMS)
}
