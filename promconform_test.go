package pvr_test

// Strict conformance checks of the /metrics Prometheus text exposition:
// every sample line must parse, every series must belong to a declared
// family, and every live histogram family must expose monotone buckets,
// a +Inf bucket equal to its _count, and a _sum — for each label set.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pvr"
	"pvr/internal/obs/fleet"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string            // metric name (including _bucket/_sum/_count suffix)
	labels map[string]string // parsed label set (may be empty)
	value  float64
}

// parsePromStrict parses the exposition text, failing the test on any
// line that does not conform.
func parsePromStrict(t *testing.T, body string) (types map[string]string, samples []promSample) {
	t.Helper()
	types = make(map[string]string)
	for ln, line := range strings.Split(body, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch f[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, f[3])
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			t.Fatalf("line %d: %v", ln+1, err)
		}
		samples = append(samples, s)
	}
	return types, samples
}

func parsePromSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unbalanced braces: %q", line)
		}
		lbl := rest[i+1 : end]
		for len(lbl) > 0 {
			eq := strings.IndexByte(lbl, '=')
			if eq < 0 || len(lbl) < eq+2 || lbl[eq+1] != '"' {
				return s, fmt.Errorf("malformed label in %q", line)
			}
			key := lbl[:eq]
			cl := strings.IndexByte(lbl[eq+2:], '"')
			if cl < 0 {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels[key] = lbl[eq+2 : eq+2+cl]
			lbl = lbl[eq+2+cl+1:]
			lbl = strings.TrimPrefix(lbl, ",")
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return s, fmt.Errorf("no value in %q", line)
		}
		s.name, rest = rest[:sp], strings.TrimSpace(rest[sp+1:])
	}
	v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

// labelKeyWithout renders a label set (minus one key) canonically.
func labelKeyWithout(labels map[string]string, drop string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != drop {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

func TestMetricsPrometheusConformance(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := pvr.NewMemTransport()
	reg := pvr.NewRegistry()
	pfx := pvr.MustParsePrefix("203.0.113.0/24")

	a, err := pvr.Open(ctx,
		pvr.WithASN(64500), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithOriginate(pfx), pvr.WithShards(4), pvr.WithWindow(0),
		pvr.WithHoldTime(0), pvr.WithDiscloseListen("conform-a"), pvr.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Exercise the disclosure plane so its latency histograms are live.
	obsP, err := pvr.Open(ctx,
		pvr.WithASN(64503), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithHoldTime(0), pvr.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer obsP.Close()
	if _, err := obsP.QueryDisclosure(ctx, a.DiscloseAddr(), pvr.Query{
		Prefix: pfx, Epoch: 1, Role: pvr.RoleObserver,
	}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := a.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	types, samples := parsePromStrict(t, sb.String())

	// Every series must belong to a declared family.
	family := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count", "_max"} {
			if f, ok := strings.CutSuffix(name, suf); ok {
				if _, declared := types[f]; declared {
					return f
				}
			}
		}
		return name
	}
	for _, s := range samples {
		if _, ok := types[family(s.name)]; !ok {
			t.Errorf("series %s has no # TYPE declaration", s.name)
		}
	}

	// For every histogram family and label set: bucket counts must be
	// monotone in ascending le, the +Inf bucket must equal _count, and
	// _sum must be present.
	type group struct {
		les    []float64
		counts map[float64]float64
		sum    *float64
		count  *float64
	}
	groups := make(map[string]*group) // key: family + "|" + labels-sans-le
	get := func(fam string, labels map[string]string) *group {
		k := fam + "|" + labelKeyWithout(labels, "le")
		g := groups[k]
		if g == nil {
			g = &group{counts: make(map[float64]float64)}
			groups[k] = g
		}
		return g
	}
	histFamilies := 0
	for _, s := range samples {
		fam := family(s.name)
		if types[fam] != "histogram" {
			continue
		}
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			leStr, ok := s.labels["le"]
			if !ok {
				t.Fatalf("histogram bucket %s without le label", s.name)
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Fatalf("bad le %q on %s", leStr, s.name)
				}
			}
			g := get(fam, s.labels)
			g.les = append(g.les, le)
			g.counts[le] = s.value
		case strings.HasSuffix(s.name, "_sum"):
			v := s.value
			get(fam, s.labels).sum = &v
		case strings.HasSuffix(s.name, "_count"):
			v := s.value
			get(fam, s.labels).count = &v
		}
	}
	for fam, typ := range types {
		if typ == "histogram" {
			histFamilies++
			_ = fam
		}
	}
	if histFamilies == 0 {
		t.Fatal("no histogram families live — the conformance check checked nothing")
	}
	if len(groups) == 0 {
		t.Fatal("no histogram series collected")
	}
	for key, g := range groups {
		sort.Float64s(g.les)
		if len(g.les) == 0 || !math.IsInf(g.les[len(g.les)-1], 1) {
			t.Errorf("%s: no +Inf bucket", key)
			continue
		}
		prev := -1.0
		for _, le := range g.les {
			if c := g.counts[le]; c < prev {
				t.Errorf("%s: bucket le=%v count %v < previous %v (non-monotone)", key, le, c, prev)
			} else {
				prev = c
			}
		}
		if g.count == nil {
			t.Errorf("%s: missing _count", key)
		} else if inf := g.counts[math.Inf(1)]; inf != *g.count {
			t.Errorf("%s: +Inf bucket %v != _count %v", key, inf, *g.count)
		}
		if g.sum == nil {
			t.Errorf("%s: missing _sum", key)
		}
	}
}

func TestTraceSinceCursorEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := pvr.NewMemTransport()
	pfx := pvr.MustParsePrefix("198.51.100.0/24")
	a, err := pvr.Open(ctx,
		pvr.WithASN(64510), pvr.WithTransport(tr), pvr.WithOriginate(pfx),
		pvr.WithWindow(0), pvr.WithHoldTime(0), pvr.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()

	var env struct {
		Next   uint64           `json:"next"`
		Events []pvr.TraceEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/trace?since=0")), &env); err != nil {
		t.Fatalf("/trace?since=0 is not an envelope: %v", err)
	}
	if len(env.Events) == 0 || env.Next == 0 {
		t.Fatalf("envelope empty: %+v", env)
	}
	// Traced events exist: the originated prefix's accept/seal chain.
	traced := 0
	for _, ev := range env.Events {
		if !ev.Trace.IsZero() {
			traced++
		}
	}
	if traced == 0 {
		t.Fatal("no traced events in the envelope")
	}
	// Incremental pull from the cursor is empty while idle.
	cur := env.Next
	if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("%s/trace?since=%d", srv.URL, cur))), &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Events) != 0 || env.Next != cur {
		t.Fatalf("idle re-poll moved: %d events, next %d (cursor %d)", len(env.Events), env.Next, cur)
	}
	// Malformed cursor is a 400.
	resp, err := http.Get(srv.URL + "/trace?since=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/trace?since=bogus: %d, want 400", resp.StatusCode)
	}
}

func TestMetricsHistoryEndpoint(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := pvr.NewMemTransport()
	a, err := pvr.Open(ctx,
		pvr.WithASN(64511), pvr.WithTransport(tr),
		pvr.WithWindow(0), pvr.WithHoldTime(0), pvr.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SampleMetrics()
	a.SampleMetrics()

	srv := httptest.NewServer(a.DebugHandler())
	defer srv.Close()

	var pts []fleet.Point
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/metrics/history")), &pts); err != nil {
		t.Fatalf("/metrics/history is not a point array: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("history has %d points, want 2", len(pts))
	}
	if len(pts[0].Values) == 0 {
		t.Fatal("history point has no metric values")
	}
	// JSONL form: one JSON object per line.
	body := httpGet(t, srv.URL+"/metrics/history?format=jsonl")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl has %d lines, want 2", len(lines))
	}
	var p fleet.Point
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatalf("jsonl line does not parse: %v", err)
	}
}

func TestFleetCollectorStitchesTwoParticipants(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := pvr.NewMemTransport()
	reg := pvr.NewRegistry()
	pfx := pvr.MustParsePrefix("203.0.113.0/24")

	a, err := pvr.Open(ctx,
		pvr.WithASN(64500), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithOriginate(pfx), pvr.WithWindow(0), pvr.WithHoldTime(0),
		pvr.WithDiscloseListen("fleet-a"), pvr.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := pvr.Open(ctx,
		pvr.WithASN(64503), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithHoldTime(0), pvr.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	d, err := b.QueryDisclosure(ctx, a.DiscloseAddr(), pvr.Query{
		Prefix: pfx, Epoch: 1, Role: pvr.RoleObserver,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Trace.IsZero() {
		t.Fatal("disclosure carried no trace — the seal's chain was lost on the wire")
	}

	c := fleet.NewCollector(a.FleetSource(), b.FleetSource())
	if err := c.Poll(); err != nil {
		t.Fatal(err)
	}
	// The seal's trace must stitch across both participants: minted at
	// A's announce ingestion, and re-recorded at B when the fetched seal
	// entered B's audit store.
	ch := c.Chain(d.Trace.TraceID)
	if ch == nil {
		t.Fatalf("no chain for seal trace %s", d.Trace.TraceID)
	}
	if !ch.Stitched() {
		t.Fatalf("chain not stitched across participants: %+v", ch.Spans)
	}
	parts := ch.Participants()
	if len(parts) != 2 {
		t.Fatalf("chain participants = %v, want both", parts)
	}
	st := c.Stats()
	if st.Stitched == 0 || st.Participants != 2 {
		t.Fatalf("fleet stats = %+v", st)
	}
	// FleetSnapshot agrees with the source adapter.
	snap := a.FleetSnapshot(0)
	if snap.Participant != a.ASN().String() || len(snap.Events) == 0 || snap.Metrics == nil {
		t.Fatalf("FleetSnapshot = %+v", snap)
	}
}
