package main

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
)

const (
	// serveCacheSize is mcaserved's memory tier; the run's distinct
	// documents outgrow it, so old documents come back from disk.
	serveCacheSize = 256
	// servePass is the number of /verify requests in one pass.
	servePass = 500
	// serveWarmup is the number of first-seen requests of the warm-up:
	// enough to fill the memory tier and push as many out to disk.
	serveWarmup = 2 * serveCacheSize
)

// Request classes of the serve workload.
const (
	classMiss = iota // first-seen: miss, verify, put
	classMem         // repeat answered by the memory tier
	classDisk        // repeat answered by the disk tier
)

var className = [...]string{"miss", "mem", "disk"}

// classBlock fixes the mix: of every ten requests two are first-seen,
// six repeat a document still in memory and two an evicted one. No
// recorded traffic backs these shares; they keep the verify path at
// most of the wall time while hits set the median.
var classBlock = [10]int{classMiss, classMiss, classMem, classMem, classMem, classMem, classMem, classMem, classDisk, classDisk}

// serve drives a standalone mcaserved with one closed-loop client
// sending small /verify documents over a keep-alive connection.
type serve struct {
	cfg    config
	srv    *server
	dir    string
	src    *docSource
	lru    *lruSim
	rng    *rand.Rand
	client *http.Client
	sent   []*request
	n      int // requests planned so far

	// traced-pass accumulators
	byClass              [3][]float64
	tracedClientMS       []float64
	cacheDelta           cache.Stats
	serverSum, serverCnt float64
}

type request struct {
	doc    *doc
	class  int
	latMS  float64
	status int
	body   []byte
	err    error
}

func (w *serve) setup(ctx context.Context) error {
	var err error
	if w.dir, err = os.MkdirTemp(w.cfg.out, "serve-cache-"); err != nil {
		return err
	}
	w.srv, err = startServer(ctx, w.cfg, "serve", "-role", "standalone",
		"-cachesize", strconv.Itoa(serveCacheSize), "-cachedir", w.dir)
	if err != nil {
		return err
	}
	w.src = newDocSource(w.cfg.seed, "serve")
	w.lru = newLRUSim(serveCacheSize)
	w.rng = seededRand(w.cfg.seed, "serve/classes")
	w.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
	// Warm-up: the timed passes meet a full memory tier and a disk tier
	// holding the documents it evicted.
	var reqs []*request
	for i := 0; i < serveWarmup; i++ {
		r, err := w.plan(classMiss)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	w.send(ctx, reqs, nil)
	for _, r := range reqs {
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("warm-up request: status %d: %v", r.status, r.err)
		}
	}
	return nil
}

// plan picks the next request of the class and updates the simulated
// LRU the way the server's memory tier will move.
func (w *serve) plan(class int) (*request, error) {
	w.n++
	var d *doc
	switch class {
	case classMiss:
		var err error
		if d, err = w.src.next(); err != nil {
			return nil, err
		}
	case classMem:
		d = w.lru.resident(w.rng)
	case classDisk:
		var err error
		if d, err = w.lru.evicted(w.rng); err != nil {
			return nil, err
		}
	}
	w.lru.touch(d)
	return &request{doc: d, class: class}, nil
}

func (w *serve) pass(ctx context.Context, tr *tracer) (passStats, error) {
	var reqs []*request
	for len(reqs) < servePass {
		block := classBlock
		w.rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, class := range block {
			r, err := w.plan(class)
			if err != nil {
				return passStats{}, err
			}
			reqs = append(reqs, r)
		}
	}
	var before cache.Stats
	var sum0, cnt0 float64
	if tr != nil {
		if err := getJSON(ctx, w.srv.url+"/cache/stats", &before); err != nil {
			return passStats{}, err
		}
		var err error
		if sum0, cnt0, err = requestSeconds(ctx, w.srv.url, "/verify"); err != nil {
			return passStats{}, err
		}
	}
	ps := w.send(ctx, reqs, tr)
	w.sent = append(w.sent, reqs...)
	if tr != nil {
		var after cache.Stats
		if err := getJSON(ctx, w.srv.url+"/cache/stats", &after); err != nil {
			return ps, err
		}
		sum1, cnt1, err := requestSeconds(ctx, w.srv.url, "/verify")
		if err != nil {
			return ps, err
		}
		w.serverSum += sum1 - sum0
		w.serverCnt += cnt1 - cnt0
		w.cacheDelta.Hits += after.Hits - before.Hits
		w.cacheDelta.DiskHits += after.DiskHits - before.DiskHits
		w.cacheDelta.Misses += after.Misses - before.Misses
		for _, r := range reqs {
			w.byClass[r.class] = append(w.byClass[r.class], r.latMS)
		}
		w.tracedClientMS = append(w.tracedClientMS, ps.latMS...)
	}
	return ps, nil
}

// send runs the requests through the closed loop: the next request
// goes out only after the previous reply has been read.
func (w *serve) send(ctx context.Context, reqs []*request, tr *tracer) passStats {
	ps := passStats{verdicts: len(reqs)}
	start := time.Now()
	for i, r := range reqs {
		id := w.n - len(reqs) + i
		root := tr.begin("verdict", -1, id)
		sp := tr.begin("http.verify", root, id)
		t0 := time.Now()
		r.status, r.body, r.err = post(ctx, w.client, w.srv.url+"/verify", r.doc.body)
		r.latMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.end(sp)
		tr.end(root)
		ps.latMS = append(ps.latMS, r.latMS)
	}
	ps.wall = time.Since(start)
	return ps
}

// post sends one document and reads the whole reply, so the connection
// goes back to the pool for reuse.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// requestSeconds reads the server's request-time summary for one path
// from /metrics: the sum of request seconds and the request count.
func requestSeconds(ctx context.Context, base, path string) (sum, count float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	label := fmt.Sprintf("{path=%q}", path)
	for _, line := range strings.Split(string(data), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(value, 64)
		switch name {
		case "mcaserved_request_seconds_sum" + label:
			sum, err = v, perr
		case "mcaserved_request_seconds_count" + label:
			count, err = v, perr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return sum, count, nil
}

func (w *serve) layers(ctx context.Context, tr *tracer, m metrics) error {
	gets := float64(w.cacheDelta.Hits + w.cacheDelta.DiskHits + w.cacheDelta.Misses)
	m.set("cache.mem_hit_ratio", float64(w.cacheDelta.Hits)/gets, "ratio")
	m.set("cache.disk_hit_ratio", float64(w.cacheDelta.DiskHits)/gets, "ratio")
	m.set("cache.miss_ratio", float64(w.cacheDelta.Misses)/gets, "ratio")
	m.set("serve.hit_p50_ms", quantile(w.byClass[classMem], 0.5), "ms")
	m.set("serve.disk_hit_p50_ms", quantile(w.byClass[classDisk], 0.5), "ms")
	m.set("serve.miss_p50_ms", quantile(w.byClass[classMiss], 0.5), "ms")
	m.set("http.server_mean_ms", 1000*w.serverSum/w.serverCnt, "ms")
	m.set("http.client_mean_ms", mean(w.tracedClientMS), "ms")
	return codecAndCacheLayers(ctx, w.cfg, w.src, tr, m, true)
}

// codecAndCacheLayers times the codec, CacheKey and cache tiers on the
// workload's own documents and their reference results: a private
// cache with a disk tier is fed every result (disk put), read back
// (memory get), then reopened over the same directory and read again
// (disk get).
func codecAndCacheLayers(ctx context.Context, cfg config, src *docSource, tr *tracer, m metrics, cacheKey bool) error {
	if err := src.reference(ctx); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.out, "probe-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	docs := src.docs
	results := make([]engine.Result, len(docs))
	for i, d := range docs {
		sp := tr.begin("codec.decode_scenario", -1, i)
		s, err := engine.DecodeScenario(d.body)
		tr.end(sp)
		if err != nil {
			return err
		}
		if cacheKey {
			sp = tr.begin("engine.cache_key", -1, i)
			_, err = engine.CacheKey(&s, engine.Auto{})
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		if results[i], err = engine.DecodeResult(d.ref); err != nil {
			return err
		}
		sp = tr.begin("codec.encode_result", -1, i)
		_, err = engine.EncodeResult(&results[i])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	c, err := cache.New(cache.Options{Capacity: len(docs) + 1, Dir: dir})
	if err != nil {
		return err
	}
	for i, d := range docs {
		sp := tr.begin("cache.disk_put", -1, i)
		c.Put(d.key, results[i])
		tr.end(sp)
	}
	for i, d := range docs {
		sp := tr.begin("cache.mem_get", -1, i)
		_, ok := c.Get(d.key)
		tr.end(sp)
		if !ok {
			return fmt.Errorf("probe cache: memory tier lost %s", d.key)
		}
	}
	cold, err := cache.New(cache.Options{Capacity: len(docs) + 1, Dir: dir})
	if err != nil {
		return err
	}
	for i, d := range docs {
		sp := tr.begin("cache.disk_get", -1, i)
		_, ok := cold.Get(d.key)
		tr.end(sp)
		if !ok {
			return fmt.Errorf("probe cache: disk tier lost %s", d.key)
		}
	}
	m.set("codec.decode_scenario_us", tr.medianUS("codec.decode_scenario"), "us")
	m.set("codec.encode_result_us", tr.medianUS("codec.encode_result"), "us")
	if cacheKey {
		m.set("engine.cache_key_us", tr.medianUS("engine.cache_key"), "us")
	}
	m.set("cache.mem_get_us", tr.medianUS("cache.mem_get"), "us")
	m.set("cache.disk_get_us", tr.medianUS("cache.disk_get"), "us")
	m.set("cache.disk_put_us", tr.medianUS("cache.disk_put"), "us")
	return nil
}

// check compares every reply with the in-process reference verdict of
// its document.
func (w *serve) check(ctx context.Context) (int, int, error) {
	if err := w.src.reference(ctx); err != nil {
		return 0, 0, err
	}
	failed := 0
	for _, r := range w.sent {
		ok := r.err == nil && r.status == http.StatusOK
		if ok {
			got, err := normalizedBody(r.body)
			ok = err == nil && bytes.Equal(got, r.doc.ref)
		}
		if !ok {
			failed++
			if failed <= 5 {
				fmt.Printf("serve: MISMATCH %s (%s): status %d err %v body %.200s\n", r.doc.scenario.Name, className[r.class], r.status, r.err, r.body)
			}
		}
	}
	for _, d := range w.src.docs {
		if !bytes.Contains(d.ref, []byte(`"status":"holds"`)) && !bytes.Contains(d.ref, []byte(`"status":"violated"`)) {
			return 0, 0, fmt.Errorf("document %s is not conclusive, so repeats of it miss the cache: %s", d.scenario.Name, d.ref)
		}
	}
	return len(w.sent), failed, nil
}

func (w *serve) peakRSSMB() (float64, error) { return w.srv.peakRSSMB() }

func (w *serve) close() {
	w.srv.stop()
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}

// lruSim mirrors the server's memory-tier LRU so that the request plan
// knows which documents a repeat will find in memory and which it will
// find only on disk.
type lruSim struct {
	capacity int
	ll       *list.List // of *doc, most recent first
	idx      map[*doc]*list.Element
	// out holds the evicted documents; outIndex is their position in it.
	out      []*doc
	outIndex map[*doc]int
}

func newLRUSim(capacity int) *lruSim {
	return &lruSim{capacity: capacity, ll: list.New(), idx: map[*doc]*list.Element{}, outIndex: map[*doc]int{}}
}

// touch records a request for d.
func (l *lruSim) touch(d *doc) {
	if el, ok := l.idx[d]; ok {
		l.ll.MoveToFront(el)
		return
	}
	if i, ok := l.outIndex[d]; ok {
		last := len(l.out) - 1
		l.out[i] = l.out[last]
		l.outIndex[l.out[i]] = i
		l.out = l.out[:last]
		delete(l.outIndex, d)
	}
	l.idx[d] = l.ll.PushFront(d)
	for l.ll.Len() > l.capacity {
		back := l.ll.Back()
		old := back.Value.(*doc)
		l.ll.Remove(back)
		delete(l.idx, old)
		l.outIndex[old] = len(l.out)
		l.out = append(l.out, old)
	}
}

// resident picks a document the memory tier holds.
func (l *lruSim) resident(rng *rand.Rand) *doc {
	el := l.ll.Front()
	for k := rng.Intn(l.ll.Len()); k > 0; k-- {
		el = el.Next()
	}
	return el.Value.(*doc)
}

// evicted picks a document that left the memory tier.
func (l *lruSim) evicted(rng *rand.Rand) (*doc, error) {
	if len(l.out) == 0 {
		return nil, fmt.Errorf("no document has left the memory tier")
	}
	return l.out[rng.Intn(len(l.out))], nil
}
