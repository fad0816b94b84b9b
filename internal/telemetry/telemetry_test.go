package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

func sample() Snapshot {
	return Snapshot{
		Model: "chat", Replica: "chat-0",
		Waiting: 3, Running: 7,
		RunningByClass: map[string]int{"interactive": 6, "batch": 4},
		KVBlocksTotal:  1024, KVBlocksUsed: 700, KVBlocksCached: 200,
		PrefixHits: 900, PrefixMisses: 100, PrefixEvictions: 17,
		CachedTokens: 14400, P95Millis: 812.5,
		Completed: 4000, Failed: 3, TokensOut: 512000,
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	in := sample()
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", in, out)
	}
	// The zero value round-trips too (a replica that has served nothing).
	zero, err := Decode(Snapshot{}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(Snapshot{}, zero) {
		t.Fatalf("zero round trip diverged: %+v", zero)
	}
	if _, err := Decode([]byte("vllm:num_requests_waiting 3")); err == nil {
		t.Fatal("Prometheus text must not decode as a snapshot")
	}
}

func TestSnapshotDerivedRates(t *testing.T) {
	s := sample()
	if got := s.KVUsage(); math.Abs(got-700.0/1024) > 1e-9 {
		t.Fatalf("KVUsage = %g", got)
	}
	if got := s.KVPressure(); math.Abs(got-500.0/1024) > 1e-9 {
		t.Fatalf("KVPressure = %g", got)
	}
	if got := s.PrefixHitRate(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("PrefixHitRate = %g", got)
	}
	// Absent KV information must read as zero, not as a full cache, and a
	// cached count exceeding used must not go negative.
	var zero Snapshot
	if zero.KVUsage() != 0 || zero.KVPressure() != 0 || zero.PrefixHitRate() != 0 {
		t.Fatalf("zero snapshot rates: %g %g %g", zero.KVUsage(), zero.KVPressure(), zero.PrefixHitRate())
	}
	odd := Snapshot{KVBlocksTotal: 10, KVBlocksUsed: 2, KVBlocksCached: 5}
	if odd.KVPressure() != 0 {
		t.Fatalf("pressure must clamp at zero, got %g", odd.KVPressure())
	}
}

// FuzzDecode: whatever Decode accepts, Encode writes a document that
// Decode reads back and Encode writes out again byte for byte. Bytes are
// compared rather than values: a decoded CapturedAt carries the location
// its offset was parsed with, which DeepEqual tells apart from the same
// instant in another location.
//
// The seed corpus is testdata/fuzz/FuzzDecode/: a snapshot with every
// field set, "{}" and "null".
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Decode(raw)
		if err != nil {
			return
		}
		first := s.Encode()
		again, err := Decode(first)
		if err != nil {
			t.Fatalf("Decode rejects its own Encode %q: %v", first, err)
		}
		if second := again.Encode(); !bytes.Equal(first, second) {
			t.Fatalf("round trip moved the document:\n first: %s\nsecond: %s", first, second)
		}
	})
}

func BenchmarkSnapshotEncode(b *testing.B) {
	s := sample()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Encode()
	}
}

func BenchmarkSnapshotDecode(b *testing.B) {
	body := sample().Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}
