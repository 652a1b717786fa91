package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"overlapsim/internal/units"
)

// pingPongSet builds a tiny valid two-rank trace used across tests.
func pingPongSet() *Set {
	s := NewSet("pingpong", "original", 2, 1000)
	s.Traces[0].Append(
		Marker("iter"),
		Burst(5000),
		Send(1, 7, 4096),
		Recv(1, 8, 4096),
		Burst(2000),
	)
	s.Traces[1].Append(
		Marker("iter"),
		Burst(3000),
		Recv(0, 7, 4096),
		Send(0, 8, 4096),
		Burst(4000),
	)
	return s
}

func TestKindAndCollectiveStrings(t *testing.T) {
	if KindBurst.String() != "burst" || KindISend.String() != "isend" {
		t.Error("kind names wrong")
	}
	if Allreduce.String() != "allreduce" {
		t.Error("collective names wrong")
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind string = %q", got)
	}
	c, err := ParseCollective("alltoall")
	if err != nil || c != Alltoall {
		t.Errorf("ParseCollective(alltoall) = %v, %v", c, err)
	}
	if _, err := ParseCollective("nope"); err == nil {
		t.Error("ParseCollective(nope): expected error")
	}
}

func TestAppendMergesBursts(t *testing.T) {
	var tr Trace
	tr.Append(Burst(100), Burst(200), Send(1, 0, 8), Burst(0), Burst(50))
	if len(tr.Records) != 3 {
		t.Fatalf("got %d records, want 3: %v", len(tr.Records), tr.Records)
	}
	if tr.Records[0].Instr != 300 {
		t.Errorf("merged burst = %d, want 300", tr.Records[0].Instr)
	}
	if tr.Records[2].Instr != 50 {
		t.Errorf("trailing burst = %d, want 50", tr.Records[2].Instr)
	}
	if tr.TotalInstructions() != 350 {
		t.Errorf("TotalInstructions = %d, want 350", tr.TotalInstructions())
	}
}

func TestAppendDropsEmptyAndNegativeBursts(t *testing.T) {
	var tr Trace
	tr.Append(Burst(0), Burst(-5))
	if len(tr.Records) != 0 {
		t.Errorf("empty bursts should be dropped, got %v", tr.Records)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := NewSet("app with spaces", "overlap-real", 3, 1234.5)
	s.Traces[0].Append(
		Burst(10),
		ISend(1, 3, 512, 1),
		ISend(2, 3, 512, 2),
		Burst(20),
		Wait(1),
		Global(Allreduce, 8, 0),
		Marker(`phase "x"`),
	)
	s.Traces[1].Append(Burst(5), IRecv(0, 3, 512, 9), Wait(9))
	s.Traces[2].Append(Recv(0, 3, 512), Burst(7))

	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v\nencoded:\n%s", err, buf.String())
	}
	if got.Name != s.Name || got.Variant != s.Variant || got.MIPS != s.MIPS {
		t.Errorf("header mismatch: got %q/%q/%v", got.Name, got.Variant, got.MIPS)
	}
	if !reflect.DeepEqual(got.Traces, s.Traces) {
		t.Errorf("traces differ\n got: %+v\nwant: %+v", got.Traces, s.Traces)
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"no header", "T 0\nC 10\n"},
		{"record before rank", "H 1 100 \"a\" \"b\"\nC 10\n"},
		{"rank out of range", "H 1 100 \"a\" \"b\"\nT 5\n"},
		{"bad record", "H 1 100 \"a\" \"b\"\nT 0\nX 1 2\n"},
		{"short send", "H 1 100 \"a\" \"b\"\nT 0\nS 1\n"},
		{"bad collective", "H 1 100 \"a\" \"b\"\nT 0\nG nope 8 0\n"},
		{"duplicate header", "H 1 100 \"a\" \"b\"\nH 1 100 \"a\" \"b\"\n"},
		{"bad mips", "H 1 xx \"a\" \"b\"\n"},
		{"unterminated quote", "H 1 100 \"a \"b\"\nT 0\nM \"oops\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: expected decode error", c.name)
		}
	}
}

func TestCodecIgnoresCommentsAndBlank(t *testing.T) {
	in := "# hello\n\nH 1 100 \"a\" \"b\"\n# mid\nT 0\n\nC 42\n"
	s, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Traces[0].Records[0].Instr != 42 {
		t.Errorf("got %+v", s.Traces[0].Records)
	}
}

func TestValidateAcceptsGoodSet(t *testing.T) {
	if err := Validate(pingPongSet()); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}

// TestValidateOnce pins the memo contract: an invalid set is checked again
// on every call, so fixing it makes it pass; a valid set is checked once,
// so a later mutation (which the contract forbids) goes unseen; the
// collectives flag follows the set's contents.
func TestValidateOnce(t *testing.T) {
	s := pingPongSet()
	s.Traces[0].Append(Send(1, 99, 64))
	for i := 0; i < 2; i++ {
		if _, err := s.ValidateOnce(); err == nil || !strings.Contains(err.Error(), "p2p mismatch") {
			t.Fatalf("call %d: invalid set: err = %v, want p2p mismatch", i, err)
		}
	}
	s.Traces[1].Append(Recv(0, 99, 64))
	coll, err := s.ValidateOnce()
	if err != nil || coll {
		t.Fatalf("repaired set: collectives=%v err=%v, want false, nil", coll, err)
	}
	s.Traces[0].Append(Send(0, 1, 64))
	if _, err := s.ValidateOnce(); err != nil {
		t.Fatalf("validated set re-checked: %v", err)
	}
	if Validate(s) == nil {
		t.Fatal("Validate must not use the memo")
	}

	c := pingPongSet()
	c.Traces[0].Append(Global(Barrier, 0, 0))
	c.Traces[1].Append(Global(Barrier, 0, 0))
	for i := 0; i < 2; i++ {
		if coll, err := c.ValidateOnce(); err != nil || !coll {
			t.Fatalf("call %d: set with a barrier: collectives=%v err=%v, want true, nil", i, coll, err)
		}
	}

	// Concurrent first calls, as from sweep workers sharing a set, agree.
	p := pingPongSet()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if coll, err := p.ValidateOnce(); err != nil || coll {
				t.Errorf("concurrent call: collectives=%v err=%v, want false, nil", coll, err)
			}
		}()
	}
	wg.Wait()
}

// TestChannels pins the channel numbering the replayer matches on: a
// send and its receive share an id, a different tag or direction is a
// different channel, ids are dense in first-appearance order, records
// that are neither point-to-point nor Waits get -1, and concurrent first
// calls share one numbering. It also pins the request numbering: a
// posting's slot is its posting order among the rank's waited ISend and
// IRecv records, whatever its request id (sparse, negative or past 2^31),
// a posting no Wait consumes is marked and takes no slot, a Wait gets the
// slot of the latest earlier posting of its id, and a Wait that precedes
// every posting of its id gets -1.
func TestChannels(t *testing.T) {
	s := NewSet("chans", "original", 2, 1000)
	s.Traces[0].Append(Burst(10), ISend(1, 7, 64, 1), Send(1, 8, 64), Wait(1), Recv(1, 7, 64))
	s.Traces[1].Append(IRecv(0, 7, 64, 1), Marker("x"), Recv(0, 8, 64), Wait(1), Send(0, 7, 64))
	var wg sync.WaitGroup
	got := make([]*Channels, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Channels()
		}()
	}
	wg.Wait()
	for _, c := range got[1:] {
		if c != got[0] {
			t.Fatal("concurrent first calls returned different numberings")
		}
	}
	c := got[0]
	want := [][]int32{{-1, 0, 1, 0, 2}, {0, -1, 1, 0, 2}}
	if c.N != 3 || !reflect.DeepEqual(c.IDs, want) || !reflect.DeepEqual(c.Slots, []int32{1, 1}) {
		t.Fatalf("Channels = %d %v %v, want 3 %v [1 1]", c.N, c.IDs, c.Slots, want)
	}

	const big = 1<<40 + 3
	s = NewSet("slots", "original", 2, 1000)
	s.Traces[0].Append(
		Wait(5),             // precedes its post: no slot
		ISend(1, 1, 8, big), // slot 0
		IRecv(1, 2, 8, -7),  // slot 1
		ISend(1, 5, 8, 77),  // never waited: no slot
		Burst(10),
		Wait(-7),
		ISend(1, 3, 8, 5), // slot 2
		Wait(big),
		Wait(5),
		IRecv(1, 4, 8, 1<<31), // slot 3
		Wait(1<<31),
		Wait(99), // never posted
	)
	s.Traces[1].Append(Recv(0, 1, 8), Send(0, 2, 8), Recv(0, 5, 8), Recv(0, 3, 8), ISend(0, 4, 8, 1000), Wait(1000))
	c = s.Channels()
	want = [][]int32{
		{-1, 0, 1, -2 - 2, -1, 1, 3, 0, 2, 4, 3, -1},
		{0, 1, 2, 3, 4, 0},
	}
	if !reflect.DeepEqual(c.IDs, want) {
		t.Fatalf("IDs = %v, want %v", c.IDs, want)
	}
	if !reflect.DeepEqual(c.Slots, []int32{4, 1}) {
		t.Fatalf("Slots = %v, want [4 1]", c.Slots)
	}
	if ch, waited := PostChannel(c.IDs[0][3]); ch != 2 || waited {
		t.Fatalf("PostChannel(%d) = %d, %v, want 2, false", c.IDs[0][3], ch, waited)
	}
	if ch, waited := PostChannel(c.IDs[0][2]); ch != 1 || !waited {
		t.Fatalf("PostChannel(%d) = %d, %v, want 1, true", c.IDs[0][2], ch, waited)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	build := func(mutate func(*Set)) *Set {
		s := pingPongSet()
		mutate(s)
		return s
	}
	cases := []struct {
		name string
		set  *Set
		want string
	}{
		{"unmatched send", build(func(s *Set) {
			s.Traces[0].Append(Send(1, 99, 64))
		}), "p2p mismatch"},
		{"self send", build(func(s *Set) {
			s.Traces[0].Append(Send(0, 1, 64))
		}), "self-send"},
		{"peer range", build(func(s *Set) {
			s.Traces[0].Append(Send(9, 1, 64))
		}), "peer out of range"},
		{"negative burst", build(func(s *Set) {
			s.Traces[0].Records = append(s.Traces[0].Records, Record{Kind: KindBurst, Instr: -1})
		}), "negative burst"},
		{"wait unposted", build(func(s *Set) {
			s.Traces[0].Append(Wait(42))
		}), "unposted"},
		{"double wait", build(func(s *Set) {
			s.Traces[0].Append(ISend(1, 5, 8, 1), Wait(1), Wait(1))
			s.Traces[1].Append(Recv(0, 5, 8))
		}), "waited twice"},
		{"collective divergence", build(func(s *Set) {
			s.Traces[0].Append(Global(Barrier, 0, 0))
		}), "collectives"},
		{"collective root divergence", build(func(s *Set) {
			s.Traces[0].Append(Global(Bcast, 8, 0))
			s.Traces[1].Append(Global(Bcast, 8, 1))
		}), "root"},
	}
	for _, c := range cases {
		err := Validate(c.set)
		if err == nil {
			t.Errorf("%s: expected validation error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	s := pingPongSet()
	st := Stats(s)
	if st.Instructions != 14000 {
		t.Errorf("Instructions = %d, want 14000", st.Instructions)
	}
	if st.Bytes != 8192 {
		t.Errorf("Bytes = %d, want 8192", st.Bytes)
	}
	if st.Messages != 2 {
		t.Errorf("Messages = %d, want 2", st.Messages)
	}
	if st.MaxRankInstr != 7000 {
		t.Errorf("MaxRankInstr = %d, want 7000", st.MaxRankInstr)
	}
	// 7000 instructions at 1000 MIPS = 7 microseconds.
	if st.ComputeTime != 7*units.Microsecond {
		t.Errorf("ComputeTime = %v, want 7us", st.ComputeTime)
	}
	if st.MeanMsgSize != 4096 || st.LargestMsg != 4096 || st.SmallestMsg != 4096 {
		t.Errorf("message size stats wrong: %+v", st)
	}
	if st.Ranks[0].MessagesSent != 1 || st.Ranks[0].BytesSent != 4096 {
		t.Errorf("rank stats wrong: %+v", st.Ranks[0])
	}
}

func TestStatsEmptySet(t *testing.T) {
	st := Stats(NewSet("empty", "original", 2, 100))
	if st.Bytes != 0 || st.Messages != 0 || st.SmallestMsg != 0 || st.ComputeTime != 0 {
		t.Errorf("empty set stats: %+v", st)
	}
}

func TestClone(t *testing.T) {
	s := pingPongSet()
	c := s.Clone()
	c.Traces[0].Records[1].Instr = 999999
	c.Name = "other"
	if s.Traces[0].Records[1].Instr == 999999 || s.Name == "other" {
		t.Error("Clone is not deep")
	}
}

// randomSet builds a structurally valid random trace set for property tests.
func randomSet(rng *rand.Rand) *Set {
	nranks := rng.Intn(4) + 2
	s := NewSet("prop", "original", nranks, units.MIPS(rng.Intn(2000)+1))
	// Generate matched pairs of sends/recvs plus shared collectives.
	for pair := 0; pair < rng.Intn(20); pair++ {
		src := rng.Intn(nranks)
		dst := rng.Intn(nranks)
		if src == dst {
			continue
		}
		size := units.Bytes(rng.Intn(1 << 16))
		tag := rng.Intn(8)
		s.Traces[src].Append(Burst(int64(rng.Intn(10000))), Send(dst, tag, size))
		s.Traces[dst].Append(Burst(int64(rng.Intn(10000))), Recv(src, tag, size))
	}
	for c := 0; c < rng.Intn(3); c++ {
		sz := units.Bytes(rng.Intn(1024))
		for r := 0; r < nranks; r++ {
			s.Traces[r].Append(Global(Allreduce, sz, 0))
		}
	}
	return s
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSet(rng)
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRandomSetsValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return Validate(randomSet(rng)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
