package hotprefetch

import (
	"bytes"
	"reflect"
	"testing"

	"hotprefetch/internal/fault"
	"hotprefetch/internal/obs"
	"hotprefetch/internal/snapshot"
)

// cycledProfile returns a profile with at least one grammar cycle banked
// from the given phase's trace.
func cycledProfile(t *testing.T, phase int) *ShardedProfile {
	t.Helper()
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	feedUntilCycle(t, sp, phaseTrace(phase, 40), 0)
	return sp
}

// TestSnapshotRoundTripProfile: a snapshotted and restored profile reports
// bit-identical BankedStreams — words, order, and heats.
func TestSnapshotRoundTripProfile(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	want := src.BankedStreams(0)
	if len(want) == 0 {
		t.Fatal("no banked streams to snapshot")
	}

	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, 3); err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.SnapshotWrites != 1 {
		t.Fatalf("SnapshotWrites = %d, want 1", st.SnapshotWrites)
	}
	if n := src.Observer().Count(obs.KindSnapshotWritten); n != 1 {
		t.Fatalf("KindSnapshotWritten count = %d, want 1", n)
	}

	dst := NewShardedProfile(1)
	defer dst.Close()
	info, err := dst.RestoreSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 3 || info.Streams != len(want) {
		t.Fatalf("RestoreInfo = %+v, want generation 3, %d streams", info, len(want))
	}
	got := dst.BankedStreams(0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored BankedStreams diverged:\n got %+v\nwant %+v", got, want)
	}
	st := dst.Stats()
	if st.SnapshotRestores != 1 || st.RestoredStreams != len(want) || st.SnapshotGeneration != 3 {
		t.Fatalf("restore stats = restores %d, restored %d, generation %d",
			st.SnapshotRestores, st.RestoredStreams, st.SnapshotGeneration)
	}
	if n := dst.Observer().Count(obs.KindSnapshotRestored); n != 1 {
		t.Fatalf("KindSnapshotRestored count = %d, want 1", n)
	}

	// And a re-snapshot of the restored profile is byte-identical payload:
	// same streams, same order (generation differs, so compare streams).
	var buf2 bytes.Buffer
	if err := dst.WriteSnapshot(&buf2, 3); err != nil {
		t.Fatal(err)
	}
	again, err := snapshot.Read(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Streams) != len(want) {
		t.Fatalf("re-snapshot has %d streams, want %d", len(again.Streams), len(want))
	}
}

// TestSnapshotRestoreFailureColdFallback: a corrupt snapshot load returns
// the loader's typed error, counts a load failure, emits the tracer event,
// and leaves the profile cold and fully usable.
func TestSnapshotRestoreFailureColdFallback(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	enc[len(enc)/2] ^= 0x40

	sp := NewShardedProfile(1)
	defer sp.Close()
	if _, err := sp.RestoreSnapshot(bytes.NewReader(enc)); !snapshot.IsFormatError(err) {
		t.Fatalf("corrupt restore error = %v, want a format error", err)
	}
	st := sp.Stats()
	if st.SnapshotLoadFailures != 1 || st.RestoredStreams != 0 || st.SnapshotRestores != 0 {
		t.Fatalf("failure stats = %+v", st)
	}
	if n := sp.Observer().Count(obs.KindSnapshotLoadFailed); n != 1 {
		t.Fatalf("KindSnapshotLoadFailed count = %d, want 1", n)
	}
	// Cold fallback: the profile still profiles from zero.
	if err := sp.Shard(0).AddAll(phaseTrace(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := sp.Stats().Consumed; got == 0 {
		t.Fatal("profile did not ingest after failed restore")
	}
}

// warmStart snapshots src and restores it into a fresh profile + supervisor
// wired with cfg, returning both.
func warmStart(t *testing.T, src *ShardedProfile, cfg SupervisorConfig) (*ShardedProfile, *ConcurrentMatcher, *Supervisor) {
	t.Helper()
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	sp, err := NewShardedProfileConfig(ShardedConfig{
		Shards:            1,
		MaxGrammarSymbols: 64,
		CycleAnalysis:     AnalysisConfig{MinLen: 4, MaxLen: 64, MinCoverage: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	cm, err := NewConcurrentMatcher(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := Supervise(sp, cm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sp, cm, sup
}

// TestSupervisorWarmStart: a supervisor over a restored profile reaches
// Optimized immediately — no profiling period — provisionally, and one good
// live accuracy window promotes it to fully trusted.
func TestSupervisorWarmStart(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{
		AccuracyFloor:         0.5,
		MinWindowObservations: 64,
	})
	defer sp.Close()
	defer sup.Close()

	if got := sup.State(); got != StateOptimized {
		t.Fatalf("warm-start state = %v, want %v", got, StateOptimized)
	}
	if cm.NumStates() <= 1 {
		t.Fatalf("warm-start matcher has %d states, want > 1", cm.NumStates())
	}
	ss := sup.Snapshot()
	if !ss.Provisional {
		t.Fatal("warm-start optimization not marked provisional")
	}
	// The restored baseline seeds the reported accuracy until a live window
	// concludes (src never enabled tracking, so it may be zero; just check
	// the supervised run judges real traffic next).
	observeAll(cm, phaseTrace(1, 40))
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after healthy warm window = %v, want %v", got, StateOptimized)
	}
	if acc := sup.Accuracy(); acc < 0.5 {
		t.Fatalf("warm window accuracy = %g, want >= 0.5", acc)
	}
	if ss = sup.Snapshot(); ss.Provisional {
		t.Fatal("good window did not promote the provisional optimization")
	}
	if st := sp.Stats(); st.SnapshotStaleRejected != 0 {
		t.Fatalf("healthy warm start counted %d stale rejections", st.SnapshotStaleRejected)
	}
}

// TestSupervisorWarmStartStaleDemotion: a warm start whose accuracy windows
// come in bad is demoted to cold profiling within ProvisionalWindows — the
// restored set is dropped, the stale-rejection counter and event fire, and
// the profile re-optimizes later from live evidence only.
func TestSupervisorWarmStartStaleDemotion(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{
		AccuracyFloor:         0.5,
		MinWindowObservations: 64,
		ProvisionalWindows:    2,
		DriftOverlapFloor:     -1, // isolate the accuracy path
		Fault:                 &fault.Hooks{MatcherStaleFn: func() bool { return true }},
	})
	defer sp.Close()
	defer sup.Close()

	trace := phaseTrace(1, 40)
	for poll := 0; poll < 2; poll++ {
		observeAll(cm, trace)
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sup.State(); got != StateProfiling {
		t.Fatalf("state after %d forced-stale windows = %v, want %v", 2, got, StateProfiling)
	}
	st := sp.Stats()
	if st.SnapshotStaleRejected != 1 || st.RestoredStreams != 0 {
		t.Fatalf("demotion stats: stale rejected %d, restored %d", st.SnapshotStaleRejected, st.RestoredStreams)
	}
	if n := sp.Observer().Count(obs.KindSnapshotStaleRejected); n != 1 {
		t.Fatalf("KindSnapshotStaleRejected count = %d, want 1", n)
	}
	if cm.NumStates() > 1 {
		t.Fatalf("demoted matcher still has %d states", cm.NumStates())
	}
}

// TestSupervisorQuietPollsCarryWindow: a supervisor polled faster than
// MinWindowObservations still judges windows. A forced-stale warm start is
// polled every 100 observations against a 256-observation floor: the quiet
// polls carry their observations forward, so a window concludes at every
// third poll and the second bad one demotes the warm start at poll 6. A
// supervisor that dropped each quiet poll's observations would never judge
// a window and would stay optimized.
func TestSupervisorQuietPollsCarryWindow(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{
		AccuracyFloor:         0.5,
		MinWindowObservations: 256,
		ProvisionalWindows:    2,
		DriftOverlapFloor:     -1, // isolate the accuracy path
		Fault:                 &fault.Hooks{MatcherStaleFn: func() bool { return true }},
	})
	defer sp.Close()
	defer sup.Close()

	trace := phaseTrace(1, 40)
	for poll := 1; poll <= 6; poll++ {
		lo := (poll - 1) * 100 % (len(trace) - 100)
		observeAll(cm, trace[lo:lo+100])
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
		want := StateOptimized
		if poll == 6 {
			want = StateProfiling
		}
		if got := sup.State(); got != want {
			t.Fatalf("state after poll %d (%d observations) = %v, want %v", poll, 100*poll, got, want)
		}
	}
	if st := sp.Stats(); st.SnapshotStaleRejected != 1 {
		t.Fatalf("stale rejected = %d, want 1", st.SnapshotStaleRejected)
	}
}

// TestSupervisorWarmStartDriftDemotion: a restored profile from workload
// phase 1 against live phase-2 traffic is demoted by the overlap heuristic
// as soon as the first live cycle banks — before any accuracy window can
// accumulate (MinWindowObservations is set unreachably high).
func TestSupervisorWarmStartDriftDemotion(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, _, sup := warmStart(t, src, SupervisorConfig{
		AccuracyFloor:         0.5,
		MinWindowObservations: 1 << 40,
		DriftOverlapFloor:     0.25,
	})
	defer sp.Close()
	defer sup.Close()

	if got := sup.State(); got != StateOptimized {
		t.Fatalf("warm-start state = %v, want %v", got, StateOptimized)
	}
	// Drive a drifted workload until a live cycle banks, then poll.
	feedUntilCycle(t, sp, phaseTrace(2, 40), sp.Stats().Resets)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateProfiling {
		t.Fatalf("state after drifted cycle = %v, want %v", got, StateProfiling)
	}
	st := sp.Stats()
	if st.SnapshotStaleRejected != 1 || st.RestoredStreams != 0 {
		t.Fatalf("drift stats: stale rejected %d, restored %d", st.SnapshotStaleRejected, st.RestoredStreams)
	}
}

// TestSupervisorWarmStartDriftOverlapHolds: same-workload live cycles
// overlap the restored set, so the drift check passes and the warm start
// survives it.
func TestSupervisorWarmStartDriftOverlapHolds(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, _, sup := warmStart(t, src, SupervisorConfig{
		AccuracyFloor:         0.5,
		MinWindowObservations: 1 << 40,
		DriftOverlapFloor:     0.25,
	})
	defer sp.Close()
	defer sup.Close()

	feedUntilCycle(t, sp, phaseTrace(1, 40), sp.Stats().Resets)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after same-workload cycle = %v, want %v", got, StateOptimized)
	}
	if st := sp.Stats(); st.SnapshotStaleRejected != 0 {
		t.Fatalf("same-workload warm start counted %d stale rejections", st.SnapshotStaleRejected)
	}
}

func TestStreamOverlap(t *testing.T) {
	a := []Stream{{Refs: []Ref{{PC: 1, Addr: 2}}, Heat: 10}, {Refs: []Ref{{PC: 3, Addr: 4}}, Heat: 5}}
	b := []Stream{{Refs: []Ref{{PC: 1, Addr: 2}}, Heat: 99}}
	if got := streamOverlap(a, b); got != 1 {
		t.Fatalf("contained overlap = %g, want 1", got)
	}
	c := []Stream{{Refs: []Ref{{PC: 9, Addr: 9}}, Heat: 1}}
	if got := streamOverlap(a, c); got != 0 {
		t.Fatalf("disjoint overlap = %g, want 0", got)
	}
	if got := streamOverlap(nil, a); got != 0 {
		t.Fatalf("empty overlap = %g, want 0", got)
	}
}
