package hotprefetch

// Tests for the bursty-sampling front end (ShardedConfig.Burst): exact
// shed/push reconciliation across policies under the race detector, the
// admission a one-check-per-reference controller makes, which the Skip fast
// path must preserve, and the flag-value parser.

import (
	"strings"
	"sync"
	"testing"

	"hotprefetch/internal/burst"
)

// burstTestConfig is small enough to cross several awake/hibernate phases
// per test without the paper's 2.5M-check phase length.
func burstTestConfig() BurstConfig {
	return BurstConfig{Enabled: true, NCheck: 190, NInstr: 10, NAwake: 5, NHibernate: 5}
}

// TestBurstReconciliation is the books-balance acceptance check, run with
// every ingest policy and concurrent producers mixing Add and AddBatch (run
// under -race): at quiescence every produced reference is in exactly one of
// Pushed, Dropped, Sampled, or BurstShed, and everything pushed was
// consumed.
func TestBurstReconciliation(t *testing.T) {
	perProducer := 200000
	if testing.Short() {
		perProducer = 40000
	}
	const producers = 4
	for _, pol := range []IngestPolicy{Block, Drop, Sample} {
		t.Run(pol.String(), func(t *testing.T) {
			sp, err := NewShardedProfileConfig(ShardedConfig{
				Shards: producers,
				Policy: pol,
				Burst:  burstTestConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					s := sp.Shard(p)
					batch := make([]Ref, 0, 64)
					for i := 0; i < perProducer; i++ {
						r := Ref{PC: p*1000 + i%37, Addr: uint64(p)<<32 | uint64(i%53)}
						if i&1 == 0 {
							if err := s.Add(r); err != nil {
								t.Error(err)
								return
							}
							continue
						}
						batch = append(batch, r)
						if len(batch) == cap(batch) {
							if err := s.AddBatch(batch); err != nil {
								t.Error(err)
								return
							}
							batch = batch[:0]
						}
					}
					if err := s.AddBatch(batch); err != nil {
						t.Error(err)
					}
				}(p)
			}
			wg.Wait()
			if err := sp.Flush(); err != nil {
				t.Fatal(err)
			}
			st := sp.Stats()
			produced := uint64(producers * perProducer)
			if got := st.Pushed + st.Dropped + st.Sampled + st.BurstShed; got != produced {
				t.Errorf("pushed %d + dropped %d + sampled %d + burstShed %d = %d, want %d produced",
					st.Pushed, st.Dropped, st.Sampled, st.BurstShed, got, produced)
			}
			if st.Consumed != st.Pushed {
				t.Errorf("consumed %d != pushed %d at quiescence", st.Consumed, st.Pushed)
			}
			if st.BurstShed == 0 {
				t.Error("burst front end shed nothing; sampling not exercised")
			}
			for i, ss := range st.Shards {
				if ss.BurstPhase != "awake" && ss.BurstPhase != "hibernating" {
					t.Errorf("shard %d BurstPhase = %q", i, ss.BurstPhase)
				}
			}
			sp.Close()
		})
	}
}

// TestBurstBatchMatchesAdd is the admission check for the burst front end's
// Skip fast path: the same reference sequence through per-reference Add and
// through AddBatch in varying chunk sizes must admit exactly the references
// an independent oracle admits — a burst.Controller replayed with one Check
// per reference, the paper's counter machine run literally (§2.1–2.2) —
// yielding the oracle's push, shed, and grammar accounting.
func TestBurstBatchMatchesAdd(t *testing.T) {
	trace := coreTrace(300000)
	ctl := burst.New(burstTestConfig().controllerConfig())
	var admitted []Ref
	for _, r := range trace {
		instrumented, phaseEnded := ctl.Check()
		if instrumented && ctl.Awake() {
			admitted = append(admitted, r)
		}
		if phaseEnded {
			if ctl.Awake() {
				ctl.Hibernate()
			} else {
				ctl.Wake()
			}
		}
	}
	oracle := NewProfile()
	oracle.AddBatch(admitted)
	wantPushed, wantShed := uint64(len(admitted)), uint64(len(trace)-len(admitted))
	if wantPushed == 0 || wantShed == 0 {
		t.Fatalf("degenerate oracle: pushed %d, shed %d", wantPushed, wantShed)
	}
	run := func(chunk int) Stats {
		sp, err := NewShardedProfileConfig(ShardedConfig{
			Shards: 1,
			Burst:  burstTestConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sp.Close()
		s := sp.Shard(0)
		if chunk <= 1 {
			for _, r := range trace {
				if err := s.Add(r); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for pos := 0; pos < len(trace); {
				end := pos + 1 + (pos/3)%chunk // varying, deterministic sizes
				if end > len(trace) {
					end = len(trace)
				}
				if err := s.AddBatch(trace[pos:end]); err != nil {
					t.Fatal(err)
				}
				pos = end
			}
		}
		if err := sp.Flush(); err != nil {
			t.Fatal(err)
		}
		return sp.Stats()
	}
	for _, chunk := range []int{1, 7, 64, 256} {
		got := run(chunk)
		if got.Pushed != wantPushed || got.BurstShed != wantShed {
			t.Errorf("chunk %d: pushed/shed = %d/%d, want %d/%d",
				chunk, got.Pushed, got.BurstShed, wantPushed, wantShed)
		}
		if got.GrammarSize != oracle.GrammarSize() {
			t.Errorf("chunk %d: grammar size %d, want %d", chunk, got.GrammarSize, oracle.GrammarSize())
		}
	}
}

// TestBurstShedRateTracksConfig checks the deterministic sampling rate lands
// where the counters say it must: with NCheck 190 / NInstr 10 and symmetric
// awake/hibernate phases, the long-run admitted fraction is OverallRate —
// awake instrumented checks over all checks.
func TestBurstShedRateTracksConfig(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1, Burst: burstTestConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	s := sp.Shard(0)
	const total = 400000
	buf := make([]Ref, 100)
	for i := 0; i < total/len(buf); i++ {
		for j := range buf {
			buf[j] = Ref{PC: j, Addr: uint64(j)}
		}
		if err := s.AddBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	st := sp.Stats()
	// Awake: 10/200 instrumented; hibernating period: 1/200 instrumented but
	// shed. Overall admitted = (5*10)/((5+5)*200) = 2.5%.
	admitted := float64(st.Pushed) / float64(total)
	if admitted < 0.015 || admitted > 0.035 {
		t.Errorf("admitted fraction %.4f, want ~0.025 (burst shed %d, pushed %d)",
			admitted, st.BurstShed, st.Pushed)
	}
	if evs := sp.Observer().Count(EventBurstHibernate); evs == 0 {
		t.Error("no burst hibernation events across 400k references")
	}
	if evs := sp.Observer().Count(EventBurstAwake); evs == 0 {
		t.Error("no burst wake events across 400k references")
	}
}

// TestBurstMetricsExposition checks the burst series reach the Prometheus
// endpoint.
func TestBurstMetricsExposition(t *testing.T) {
	sp, err := NewShardedProfileConfig(ShardedConfig{Shards: 1, Burst: BurstConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	s := sp.Shard(0)
	for i := 0; i < 1000; i++ {
		if err := s.Add(Ref{PC: i % 7, Addr: uint64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	sp.WriteMetrics(&b)
	out := b.String()
	for _, want := range []string{
		"hotprefetch_burst_shed_total",
		"hotprefetch_burst_sampling_rate 0.005",
		"hotprefetch_burst_overall_rate 0.0001",
		"hotprefetch_burst_duty_ratio",
		"hotprefetch_compress_latency_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestParseBurstConfig(t *testing.T) {
	cases := []struct {
		in      string
		want    BurstConfig
		wantErr bool
	}{
		{"", BurstConfig{}, false},
		{"off", BurstConfig{}, false},
		{"paper", BurstConfig{Enabled: true}, false},
		{"190:10:5:5", BurstConfig{Enabled: true, NCheck: 190, NInstr: 10, NAwake: 5, NHibernate: 5}, false},
		{"0:0:0:0", BurstConfig{Enabled: true}, false},
		{"190:10:5", BurstConfig{}, true},
		{"a:b:c:d", BurstConfig{}, true},
		{"-1:10:5:5", BurstConfig{}, true},
	}
	for _, c := range cases {
		got, err := ParseBurstConfig(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseBurstConfig(%q) error = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseBurstConfig(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if _, err := NewShardedProfileConfig(ShardedConfig{Burst: BurstConfig{Enabled: true, NCheck: -5}}); err == nil {
		t.Error("negative burst counter passed Validate")
	}
	// The four-counter form must round-trip into the controller config with
	// paper defaults for zeros.
	cc := BurstConfig{Enabled: true, NInstr: 30}.controllerConfig()
	if cc.NCheck0 != 11940 || cc.NInstr0 != 30 {
		t.Errorf("controllerConfig zero-fill = %+v", cc)
	}
}
