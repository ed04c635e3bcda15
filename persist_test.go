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
// Optimized immediately — no profiling period — with a matcher trained on
// the restored streams, and a healthy live window keeps it there.
func TestSupervisorWarmStart(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{AccuracyFloor: 0.5})
	defer sp.Close()
	defer sup.Close()

	if got := sup.State(); got != StateOptimized {
		t.Fatalf("warm-start state = %v, want %v", got, StateOptimized)
	}
	if cm.NumStates() <= 1 {
		t.Fatalf("warm-start matcher has %d states, want > 1", cm.NumStates())
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
}

// TestSupervisorWarmStartStaleDeoptimizes: a warm start whose accuracy
// windows come in bad is deoptimized like any other optimization — after
// BadWindows bad windows the supervisor hibernates behind a pass-through
// matcher until live evidence banks.
func TestSupervisorWarmStartStaleDeoptimizes(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{AccuracyFloor: 0.5, BadWindows: 2})
	defer sp.Close()
	defer sup.Close()
	sup.inj = &fault.Hooks{MatcherStaleFn: func() bool { return true }}

	trace := phaseTrace(1, 40)
	for poll := 0; poll < 2; poll++ {
		observeAll(cm, trace)
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
	}
	if got := sup.State(); got != StateHibernating {
		t.Fatalf("state after %d forced-stale windows = %v, want %v", 2, got, StateHibernating)
	}
	if got := sup.Snapshot().Deoptimizations; got != 1 {
		t.Fatalf("Deoptimizations = %d, want 1", got)
	}
	if cm.NumStates() != 1 {
		t.Fatalf("deoptimized matcher has %d states, want 1 (pass-through)", cm.NumStates())
	}
}

// TestSupervisorQuietPollsCarryWindow: a supervisor polled faster than
// minWindowObservations still judges windows. A forced-stale warm start is
// polled every 100 observations against a 256-observation floor: the quiet
// polls carry their observations forward, so a window concludes at every
// third poll and the second bad one deoptimizes the warm start at poll 6. A
// supervisor that dropped each quiet poll's observations would never judge
// a window and would stay optimized.
func TestSupervisorQuietPollsCarryWindow(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{AccuracyFloor: 0.5, BadWindows: 2})
	defer sp.Close()
	defer sup.Close()
	sup.inj = &fault.Hooks{MatcherStaleFn: func() bool { return true }}

	trace := phaseTrace(1, 40)
	for poll := 1; poll <= 6; poll++ {
		lo := (poll - 1) * 100 % (len(trace) - 100)
		observeAll(cm, trace[lo:lo+100])
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
		want := StateOptimized
		if poll == 6 {
			want = StateHibernating
		}
		if got := sup.State(); got != want {
			t.Fatalf("state after poll %d (%d observations) = %v, want %v", poll, 100*poll, got, want)
		}
	}
	if got := sup.Snapshot().Deoptimizations; got != 1 {
		t.Fatalf("Deoptimizations = %d, want 1", got)
	}
}

// TestSupervisorWarmStartDriftForgotten: a restored phase-1 profile against
// live phase-2 traffic is an optimization that stopped paying, so the
// default three bad windows deoptimize it. The retrain after one phase-2
// cycle reads only what banked since the restore: the new matcher never
// prefetches on phase 1 and the snapshot leaves nothing in the profile.
func TestSupervisorWarmStartDriftForgotten(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	sp, cm, sup := warmStart(t, src, SupervisorConfig{AccuracyFloor: 0.5})
	defer sp.Close()
	defer sup.Close()

	if got := sup.State(); got != StateOptimized {
		t.Fatalf("warm-start state = %v, want %v", got, StateOptimized)
	}
	phase1, phase2 := phaseTrace(1, 40), phaseTrace(2, 40)
	for poll := 1; poll <= 3; poll++ {
		observeAll(cm, phase2)
		if err := sup.Poll(); err != nil {
			t.Fatal(err)
		}
		want := StateOptimized
		if poll == 3 {
			want = StateHibernating
		}
		if got := sup.State(); got != want {
			t.Fatalf("state after drifted window %d = %v, want %v", poll, got, want)
		}
	}
	if got := sup.Snapshot().Deoptimizations; got != 1 {
		t.Fatalf("Deoptimizations = %d, want 1", got)
	}

	feedUntilCycle(t, sp, phase2, sp.Stats().Resets)
	if err := sup.Poll(); err != nil {
		t.Fatal(err)
	}
	if got := sup.State(); got != StateOptimized {
		t.Fatalf("state after a phase-2 cycle = %v, want %v", got, StateOptimized)
	}
	if n := prefetchesOn(cm, phase1); n != 0 {
		t.Fatalf("retrained matcher issued %d prefetches on phase 1, want 0 (it relearned the snapshot)", n)
	}
	if in := phasesIn(sp.BankedStreams(0)); !in[2] || in[1] {
		t.Fatalf("BankedStreams after the retrain covers phases %v, want phase 2 alone", in)
	}
	if st := sp.Stats(); st.RestoredStreams != 0 {
		t.Fatalf("RestoredStreams = %d after the retrain, want 0", st.RestoredStreams)
	}
}

// TestRestoreSnapshotKeepsHeadLen: RestoreSnapshot pre-compiles an attached
// matcher with the head length the matcher was built with.
func TestRestoreSnapshotKeepsHeadLen(t *testing.T) {
	src := cycledProfile(t, 1)
	defer src.Close()
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf, 1); err != nil {
		t.Fatal(err)
	}
	sp := NewShardedProfile(1)
	defer sp.Close()
	cm, err := NewConcurrentMatcher(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp.AttachMatcher(cm)
	if _, err := sp.RestoreSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := NewConcurrentMatcher(sp.BankedStreams(0), 3)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, cm, want, phaseTrace(1, 40))
}
