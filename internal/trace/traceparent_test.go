package trace

import "testing"

func TestParseTraceparentValid(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tp, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if tp.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", tp.TraceID)
	}
	if tp.ParentID.String() != "00f067aa0ba902b7" {
		t.Errorf("parent id = %s", tp.ParentID)
	}
	if !tp.Sampled {
		t.Error("sampled bit lost")
	}
	if tp.String() != h {
		t.Errorf("round trip = %q", tp.String())
	}
}

func TestParseTraceparentUnsampled(t *testing.T) {
	tp, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	if err != nil {
		t.Fatal(err)
	}
	if tp.Sampled {
		t.Error("flags 00 parsed as sampled")
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Spec: parse version 01+ leniently, ignoring unknown trailing fields.
	tp, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	if err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	if tp.TraceID.IsZero() {
		t.Error("trace id not parsed")
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	cases := []string{
		"",
		"hello",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk on v00
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent id
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad version hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
	}
	for _, c := range cases {
		if _, err := ParseTraceparent(c); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", c)
		}
	}
}

// FuzzParseTraceparent: the parser every binary's HTTP edge runs on
// untrusted headers never panics, accepts only non-zero ids, and an
// accepted version-00 header round-trips through String byte for byte —
// up to the unused trace-flags bits, which String re-emits as zero (the
// spec has a sender zero them; only the sampled bit survives).
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-7f",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tp, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		if tp.TraceID.IsZero() || tp.ParentID.IsZero() {
			t.Fatalf("accepted %q with a zero id: %+v", s, tp)
		}
		if s[:2] != "00" {
			return
		}
		want := s[:53] + "00"
		if tp.Sampled {
			want = s[:53] + "01"
		}
		if got := tp.String(); got != want {
			t.Fatalf("round trip %q -> %q, want %q", s, got, want)
		}
	})
}
