package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestTieredFillDown(t *testing.T) {
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, nil)
	payload := []byte("fills down")
	tc.Put(key(1), payload)

	// A fresh tiered cache over the same store models a process restart:
	// memory is cold, so the first Get must come from disk and refill
	// memory; the second must come from memory.
	tc2 := NewTiered(0, disk, nil)
	data, tier, ok := tc2.Get(key(1))
	if !ok || tier != TierDisk || !bytes.Equal(data, payload) {
		t.Fatalf("cold Get = tier %v, ok %v", tier, ok)
	}
	data, tier, ok = tc2.Get(key(1))
	if !ok || tier != TierMem || !bytes.Equal(data, payload) {
		t.Fatalf("warm Get = tier %v, ok %v; want memory", tier, ok)
	}
}

func TestTieredGetOrComputeTiers(t *testing.T) {
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, nil)
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		return []byte("expensive"), nil
	}
	data, tier, err := tc.GetOrCompute(key(1), compute)
	if err != nil || tier != TierNone || string(data) != "expensive" {
		t.Fatalf("first call = %q, tier %v, err %v", data, tier, err)
	}
	if _, tier, _ = tc.GetOrCompute(key(1), compute); tier != TierMem {
		t.Fatalf("second call served by %v; want memory", tier)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times; want 1", n)
	}
	st := tc.Stats()
	if st.Computes != 1 {
		t.Fatalf("computes stat = %d; want 1", st.Computes)
	}
}

func TestTieredCoalescing(t *testing.T) {
	tc := NewTiered(0, nil, nil)
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = tc.GetOrCompute(key(1), func() ([]byte, error) {
			close(started)
			<-release
			computes.Add(1)
			return []byte("shared"), nil
		})
	}()
	<-started
	const followers = 4
	results := make([]Tier, followers)
	for i := 0; i < followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, tier, _ := tc.GetOrCompute(key(1), func() ([]byte, error) {
				computes.Add(1)
				return []byte("shared"), nil
			})
			results[i] = tier
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times under coalescing; want 1", n)
	}
	coalesced := 0
	for _, tier := range results {
		// A follower either coalesced onto the leader's flight or arrived
		// after the leader stored, hitting memory. Both mean no recompute.
		switch tier {
		case TierFlight:
			coalesced++
		case TierMem:
		default:
			t.Fatalf("follower served by %v", tier)
		}
	}
	if st := tc.Stats(); st.Coalesced != uint64(coalesced) {
		t.Fatalf("coalesced stat = %d; want %d", st.Coalesced, coalesced)
	}
}

// TestTieredSingleFlight: concurrent GetOrComputeCtx calls for one key
// run the compute function exactly once, and every caller gets its bytes.
func TestTieredSingleFlight(t *testing.T) {
	tc := NewTiered(0, nil, nil)
	var computes atomic.Int64
	gate := make(chan struct{})
	const workers = 8
	var wg sync.WaitGroup
	results := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			data, _, err := tc.GetOrComputeCtx(context.Background(), key(1), func() ([]byte, error) {
				computes.Add(1)
				return []byte("computed once"), nil
			})
			if err != nil {
				t.Errorf("GetOrComputeCtx: %v", err)
			}
			results[i] = data
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times; want 1", n)
	}
	for i, r := range results {
		if string(r) != "computed once" {
			t.Fatalf("worker %d got %q", i, r)
		}
	}
}

// TestTieredComputeErrorNotCached: a failed compute reaches the leader and
// every coalesced follower, and leaves nothing behind, so the next call
// computes again.
func TestTieredComputeErrorNotCached(t *testing.T) {
	tc := NewTiered(0, nil, nil)
	boom := errors.New("compute failed")
	var computes atomic.Int64
	release := make(chan struct{})
	failing := func() ([]byte, error) {
		computes.Add(1)
		<-release
		return nil, boom
	}
	const callers = 5
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = tc.GetOrComputeCtx(context.Background(), key(1), failing)
		}(i)
	}
	// Every caller misses memory before it joins the flight; the leader
	// misses once more when it re-checks inside the flight.
	for tc.Stats().Mem.Misses < callers+1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times; want 1", n)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v; want the compute error", i, err)
		}
	}
	data, tier, err := tc.GetOrComputeCtx(context.Background(), key(1), func() ([]byte, error) { return []byte("retry"), nil })
	if err != nil || tier != TierNone || string(data) != "retry" {
		t.Fatalf("retry = %q, tier %v, err %v", data, tier, err)
	}
}

// TestTieredFollowerOutlivesLeaderCancel: when the leader's context is
// cancelled mid-compute, a follower whose own context is live does not
// inherit the cancellation: it computes as the new leader.
func TestTieredFollowerOutlivesLeaderCancel(t *testing.T) {
	tc := NewTiered(0, nil, nil)
	leaderCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := tc.GetOrComputeCtx(leaderCtx, key(1), func() ([]byte, error) {
			close(started)
			<-leaderCtx.Done()
			return nil, fmt.Errorf("compile aborted: %w", leaderCtx.Err())
		})
		leaderDone <- err
	}()
	<-started
	followerDone := make(chan []byte, 1)
	go func() {
		data, _, err := tc.GetOrComputeCtx(context.Background(), key(1), func() ([]byte, error) {
			return []byte("follower's own"), nil
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerDone <- data
	}()
	// The follower has joined once it has missed memory (the leader
	// accounts for two misses: its lookup and its in-flight re-check).
	for tc.Stats().Mem.Misses < 3 {
		runtime.Gosched()
	}
	cancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v; want context.Canceled", err)
	}
	if data := <-followerDone; string(data) != "follower's own" {
		t.Fatalf("follower got %q", data)
	}
}

// peerServer is a minimal in-test implementation of the /v1/cache wire
// protocol backed by a map — what a warm remote ursad looks like.
func peerServer(t *testing.T, artifacts map[string][]byte) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		mu.Lock()
		defer mu.Unlock()
		switch r.Method {
		case http.MethodGet:
			data, ok := artifacts[k]
			if !ok {
				http.Error(w, "miss", http.StatusNotFound)
				return
			}
			w.Write(Frame(data))
		case http.MethodPut:
			raw := new(bytes.Buffer)
			raw.ReadFrom(r.Body)
			payload, ok := Unframe(raw.Bytes())
			if !ok {
				http.Error(w, "bad frame", http.StatusBadRequest)
				return
			}
			artifacts[k] = payload
			w.WriteHeader(http.StatusNoContent)
		}
	}))
}

func TestTieredPeerHitRefillsLocalTiers(t *testing.T) {
	remote := map[string][]byte{key(1): []byte("from the peer")}
	srv := peerServer(t, remote)
	defer srv.Close()
	peer, err := NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	disk, _ := openStore(t, 0)
	tc := NewTiered(0, disk, peer)

	data, tier, ok := tc.Get(key(1))
	if !ok || tier != TierPeer || string(data) != "from the peer" {
		t.Fatalf("peer Get = %q, tier %v, ok %v", data, tier, ok)
	}
	// The hit must have refilled disk and memory: cut the peer off and the
	// artifact is still served locally.
	srv.Close()
	if _, tier, ok := tc.Get(key(1)); !ok || tier != TierMem {
		t.Fatalf("after refill Get = tier %v, ok %v; want memory hit", tier, ok)
	}
	if got, ok := disk.Get(key(1)); !ok || string(got) != "from the peer" {
		t.Fatalf("disk tier not refilled: %q, %v", got, ok)
	}
	ps := peer.Stats()
	if ps.Gets != 1 || ps.Hits != 1 {
		t.Fatalf("peer stats = %+v; want 1 get, 1 hit", ps)
	}
}

func TestTieredPutPushesToPeer(t *testing.T) {
	remote := map[string][]byte{}
	srv := peerServer(t, remote)
	defer srv.Close()
	peer, err := NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	tc := NewTiered(0, nil, peer)
	tc.Put(key(1), []byte("pushed"))
	if got := remote[key(1)]; string(got) != "pushed" {
		t.Fatalf("peer received %q; want %q", got, "pushed")
	}
	if ps := peer.Stats(); ps.Puts != 1 || ps.Errors != 0 {
		t.Fatalf("peer stats = %+v", ps)
	}
}

// TestTieredPeerDown: an unreachable peer degrades to a miss and a local
// compute — never an error on the compile path.
func TestTieredPeerDown(t *testing.T) {
	srv := peerServer(t, map[string][]byte{})
	base := srv.URL
	srv.Close()
	peer, err := NewPeer(base, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	tc := NewTiered(0, nil, peer)
	data, tier, err := tc.GetOrCompute(key(1), func() ([]byte, error) {
		return []byte("local fallback"), nil
	})
	if err != nil || tier != TierNone || string(data) != "local fallback" {
		t.Fatalf("with peer down = %q, tier %v, err %v", data, tier, err)
	}
	if ps := peer.Stats(); ps.Errors == 0 {
		t.Fatal("peer failure not counted")
	}
}

// TestPeerRejectsCorruptTransfer: a peer serving bytes that fail the
// integrity check is an error + miss, and the bad bytes never surface.
func TestPeerRejectsCorruptTransfer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		frame := Frame([]byte("tampered"))
		frame[len(frame)-1] ^= 1
		w.Write(frame)
	}))
	defer srv.Close()
	peer, err := NewPeer(srv.URL, 0)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	if _, ok := peer.Get(key(1)); ok {
		t.Fatal("corrupt peer transfer accepted")
	}
	if ps := peer.Stats(); ps.Errors != 1 || ps.Hits != 0 {
		t.Fatalf("peer stats = %+v; want 1 error, 0 hits", ps)
	}
}

func TestNewPeerRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "not-a-url", "host:8347", "/just/a/path"} {
		if _, err := NewPeer(bad, 0); err == nil {
			t.Errorf("NewPeer(%q) accepted", bad)
		}
	}
	if _, err := NewPeer("http://ursad-2:8347/", 0); err != nil {
		t.Errorf("NewPeer rejected a valid URL: %v", err)
	}
}

func TestMemCacheEviction(t *testing.T) {
	payload := bytes.Repeat([]byte("m"), 64)
	tc := NewTiered(int64(3*len(payload)), nil, nil)
	for i := 0; i < 3; i++ {
		tc.Put(key(i), payload)
	}
	tc.Get(key(0)) // protect 0; 1 becomes LRU
	tc.Put(key(3), payload)
	if _, _, ok := tc.Get(key(1)); ok {
		t.Fatal("memory LRU victim survived")
	}
	st := tc.Stats().Mem
	if st.Evictions != 1 || st.Bytes > int64(3*len(payload)) {
		t.Fatalf("mem stats = %+v", st)
	}
}

func TestArtifactSchemaInvalidation(t *testing.T) {
	a := &Artifact{Method: "ursa", Machine: "vliw4x8",
		Blocks: []ArtifactBlock{{Label: "entry", Listing: "w0: nop\n"}}}
	data, err := a.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := DecodeArtifact(data)
	if err != nil {
		t.Fatalf("DecodeArtifact: %v", err)
	}
	if got.Schema != SchemaVersion || got.Blocks[0].Listing != a.Blocks[0].Listing {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// An artifact written by a different schema version must be refused.
	stale := bytes.Replace(data, []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion)), []byte(`"schema":999`), 1)
	if bytes.Equal(stale, data) {
		t.Fatal("test assumption broken: schema field not found in encoding")
	}
	if _, err := DecodeArtifact(stale); err == nil {
		t.Fatal("stale-schema artifact accepted")
	}
	if _, err := DecodeArtifact([]byte("not json")); err == nil {
		t.Fatal("garbage artifact accepted")
	}
}
