package scenario

import (
	"bytes"
	"testing"
)

// hostileSpecs validate field by field yet once panicked the runner: each
// carries a time or latency near the int64 limit, which the kernel clock
// wrapped negative on the first addition (Until+Every; a recurrence kept
// alive by a later step; now+Latency on the first forward).
var hostileSpecs = []string{
	`{"name":"x","steps":[{"at":9223372036854775000,"every":1000,"until":9223372036854775807,"action":{"op":"heal"}}]}`,
	`{"name":"x","steps":[{"at":9223372036854774000,"every":1000,"action":{"op":"heal"}},{"at":9223372036854775807,"action":{"op":"heal"}}]}`,
	`{"name":"x","steps":[{"at":0,"action":{"op":"latency","latency":"2562047h"}}]}`,
}

func TestParseRejectsClockOverflow(t *testing.T) {
	for _, spec := range hostileSpecs {
		if _, err := Parse([]byte(spec)); err == nil {
			t.Errorf("accepted %s", spec)
		}
	}
	atLimit := New("x", "").EveryUntil(maxSpan.Std(), maxSpan.Std(), maxSpan.Std(), Latency(maxSpan.Std()))
	if _, err := Run(atLimit, testConfig(16), 1); err != nil {
		t.Errorf("a spec at the limit should run: %v", err)
	}
}

// FuzzParse: a JSON spec is input from outside the program. Parse never
// panics on it; a spec it accepts is in canonical form after one
// Marshal→Parse round trip, and runs on a 16-member group without
// panicking (an error — the event budget, say — is a fine outcome).
func FuzzParse(f *testing.F) {
	for _, s := range DefaultSuite() {
		data, err := s.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, spec := range hostileSpecs {
		f.Add([]byte(spec))
	}
	f.Add([]byte(`{"name":"s","steps":[{"when":"stall","window":"10ms","action":{"op":"regossip","count":2}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		canon, err := s.Marshal()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if again, _ := back.Marshal(); !bytes.Equal(canon, again) {
			t.Fatalf("round trip changed the spec:\n%s\n%s", canon, again)
		}
		_, _ = Run(s, testConfig(16), 1) // only a panic fails
	})
}
