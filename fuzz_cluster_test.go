package fasttts

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzClusterRun drives Cluster.Run with hostile input: the bytes decode
// (fuzzDecode) into a small ClusterConfig — up to four devices and two
// warm-pool templates — and up to 64 requests over a pool of at most 8
// problems, with arrival gaps that include 0, NaN and ±Inf. The oracle:
// within fuzzRunLimit, Run returns either an error or a run whose every
// float is finite (Run checks the run laws itself and errors when one
// breaks), and the same stream with every request's problem a private
// copy — which solves the same but never repeats a recorded solve, so
// nothing replays — returns the same error or a deep-equal run. Finite
// values stay within fuzzMaxSeconds of 0, and an input whose controller
// would tick more than fuzzMaxTicks times is skipped.
//
// The seed corpus is the 14 catalog scenarios cut to 64 requests, and the
// hostile inputs earlier fixes added: non-finite arrivals, an infinite
// straggler factor, an infinite control interval and warm-up, an idle
// device drained under the pid controller, non-finite fail times and an
// empty strategy parameter. CI fuzzes it for a minute (make fuzz-cluster):
//
//	go test -run '^$' -fuzz '^FuzzClusterRun$' -fuzztime 60s .
func FuzzClusterRun(f *testing.F) {
	for _, info := range Scenarios() {
		spec, err := buildScenario(info.Name, ScenarioOptions{})
		if err != nil {
			f.Fatal(err)
		}
		data, err := fuzzEncode(spec.cluster, spec.requests)
		if err != nil {
			f.Fatalf("scenario %s: %v", info.Name, err)
		}
		f.Add(data)
	}
	for _, in := range fuzzHostile() {
		data, err := fuzzEncode(in.cluster, in.requests)
		if err != nil {
			f.Fatalf("hostile input %s: %v", in.name, err)
		}
		f.Add(data)
	}
	pool := fuzzPool(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cc, refs := fuzzDecode(data)
		if asksForTicks(cc, refs) > fuzzMaxTicks {
			return
		}
		shared, copied := make([]Request, len(refs)), make([]Request, len(refs))
		for i, rq := range refs {
			p := pool[rq.problem%len(pool)]
			inner := *p.inner
			q := *p
			q.inner = &inner
			shared[i] = Request{Problem: p, ArrivalTime: rq.arrival, Priority: rq.priority, Deadline: rq.deadline}
			copied[i] = shared[i]
			copied[i].Problem = &q
		}
		a, errA := fuzzRun(t, cc, shared)
		b, errB := fuzzRun(t, cc, copied)
		if (errA == nil) != (errB == nil) || errA != nil && errA.Error() != errB.Error() {
			t.Fatalf("shared problems: %v; private copies: %v", errA, errB)
		}
		if errA != nil {
			return
		}
		if err := allFinite(reflect.ValueOf(a), "run"); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("the stream of private copies ran differently from the shared one")
		}
	})
}

// fuzzRunLimit bounds one Cluster.Run of a fuzz input.
const fuzzRunLimit = 2 * time.Second

// fuzzMaxSeconds bounds the finite times and factors a fuzz input
// carries, about 32 years: far beyond any run's span, and far below the
// magnitudes (past 1e150 s) at which the sums and squares of a run's
// statistics overflow a float64.
const fuzzMaxSeconds = 1e9

// fuzzMaxTicks is the most control ticks a fuzzed run may ask for, about
// 0.4 s of ticking on a 2-CPU Xeon. A controller ticks at its interval for
// as long as the fleet has work, so a short interval over a huge span (an
// arrival at 1e12 s, a straggler factor of 1e85 that stretches one slice
// over 1e85 s) asks for more ticks than any run can finish; such an input
// is not run, since it is slow by request, not hung.
const fuzzMaxTicks = 1e7

// asksForTicks bounds from above how many control ticks cc's controller
// would run over refs: the span of the run — its latest arrival or fail
// time, its warm-up delay and 1e5 s of work stretched by its largest
// straggler factor — over the interval. Without a valid controller it is 0.
func asksForTicks(cc ClusterConfig, refs []fuzzRef) float64 {
	a := cc.Autoscale
	if a == nil || !(a.Interval > 0) || math.IsInf(a.Interval, 0) {
		return 0
	}
	span, slow := 0.0, 1.0
	finite := func(f float64) float64 {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		return math.Abs(f)
	}
	for _, rq := range refs {
		span = max(span, finite(rq.arrival))
	}
	for _, d := range append(cc.Devices[:len(cc.Devices):len(cc.Devices)], a.WarmPool...) {
		span = max(span, finite(d.FailAt))
		slow = max(slow, finite(d.Slowdown))
	}
	return (span + finite(a.WarmupDelay) + slow*1e5) / a.Interval
}

// fuzzOutcome is what a fuzzed run returns: its results, action log and
// stats.
type fuzzOutcome struct {
	Results []FleetResult
	Actions []ScalingAction
	Stats   FleetStats
}

// fuzzRun builds the cluster and runs the stream on a second goroutine,
// failing t if Run does not return within fuzzRunLimit.
func fuzzRun(t *testing.T, cc ClusterConfig, reqs []Request) (*fuzzOutcome, error) {
	t.Helper()
	type ret struct {
		out *fuzzOutcome
		err error
	}
	done := make(chan ret, 1)
	go func() {
		cl, err := NewCluster(cc)
		if err != nil {
			done <- ret{err: err}
			return
		}
		fr, err := cl.Run(reqs)
		if err != nil {
			done <- ret{err: err}
			return
		}
		done <- ret{out: &fuzzOutcome{Results: fr.Results, Actions: fr.Actions, Stats: fr.Stats()}}
	}()
	select {
	case r := <-done:
		return r.out, r.err
	case <-time.After(fuzzRunLimit):
		t.Fatalf("Cluster.Run did not return within %v", fuzzRunLimit)
		return nil, nil
	}
}

// allFinite reports the first float reachable from v that is NaN or
// infinite, naming its path.
func allFinite(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%s is %v", path, f)
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return allFinite(v.Elem(), path)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if err := allFinite(v.Field(i), path+"."+v.Type().Field(i).Name); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			if err := allFinite(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// fuzzPoolRefs is the fuzz inputs' problem pool: short, medium, long and
// code problems and two long few-shot prompts, 8 in all.
var fuzzPoolRefs = []struct {
	dataset string
	index   int
}{
	{"MATH500", 0}, {"MATH500", 1}, {"AMC23", 0}, {"AIME24", 0},
	{"AIME24", 1}, {"HumanEval", 0}, {"AMC23-fewshot", 0}, {"MATH500-fewshot", 0},
}

// fuzzPool loads the pool at seed 42.
func fuzzPool(f *testing.F) []*Problem {
	var pool []*Problem
	for _, ref := range fuzzPoolRefs {
		ds, err := LoadDataset(ref.dataset, 42)
		if err != nil {
			f.Fatal(err)
		}
		pool = append(pool, ds.Problems[ref.index])
	}
	return pool
}

// The name and value tables the fuzz format picks from by a byte's value
// modulo their length. fuzzFloats is indexed by a float's tag byte; any
// other tag is followed by the float's 8 bytes.
var (
	fuzzGPUs        = []string{"RTX 4090", "RTX 4070 Ti", "RTX 3070 Ti"}
	fuzzAlgorithms  = []string{"", "Beam Search", "Best-of-N", "DVTS"}
	fuzzBeams       = []int{8, 4, 2}
	fuzzModes       = []Mode{"", ModeBaseline}
	fuzzPolicies    = []string{"", "fcfs", "sjf", "priority", "deadline"}
	fuzzRouters     = []string{"", "single", "rr", "least-work", "jsq", "p2c", "prefix", "cache-aware"}
	fuzzStrategies  = []string{"", "full-beam", "first-finish", "first-finish:2", "deadline", "hedged", "hedged:"}
	fuzzControllers = []string{"static", "threshold", "pid", "budget"}
	fuzzFloats      = []float64{0, 0.5, 1, 2, 3, 5, 8, 10, 30, 60, 120, 240, math.NaN(), math.Inf(1), math.Inf(-1), -1}
)

// fuzzRef is one decoded request before it is bound to a pool problem.
type fuzzRef struct {
	problem           int
	arrival, deadline float64
	priority          int
}

// fuzzReader reads the fuzz format; past the end it reads zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) pick(n int) int { return int(r.byte()) % n }

// float reads a table value, or else 8 bytes of a float64, which a
// finite value more than fuzzMaxSeconds away from 0 leaves reduced modulo
// fuzzMaxSeconds. NaN and ±Inf stay as they are.
func (r *fuzzReader) float() float64 {
	if t := int(r.byte()); t < len(fuzzFloats) {
		return fuzzFloats[t]
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(r.byte())
	}
	f := math.Float64frombits(bits)
	if math.Abs(f) > fuzzMaxSeconds && !math.IsInf(f, 0) {
		f = math.Mod(f, fuzzMaxSeconds)
	}
	return f
}

// device reads one device spec; warm-pool templates carry no fail time.
func (r *fuzzReader) device(warm bool) DeviceSpec {
	d := DeviceSpec{Config: Config{
		GPU:       fuzzGPUs[r.pick(len(fuzzGPUs))],
		Algorithm: fuzzAlgorithms[r.pick(len(fuzzAlgorithms))],
		NumBeams:  fuzzBeams[r.pick(len(fuzzBeams))],
		Mode:      fuzzModes[r.pick(len(fuzzModes))],
		Seed:      uint64(r.byte()),
	}}
	d.KVPlaneBytes = int64(r.byte()) << 24 // 0 (off) to 4 GiB - 16 MiB
	d.Policy = fuzzPolicies[r.pick(len(fuzzPolicies))]
	d.MaxInFlight = r.pick(5)
	d.Slowdown = r.float()
	if !warm {
		d.FailAt = r.float()
	}
	return d
}

// fuzzDecode decodes a fuzz input into a cluster config and a request
// stream.
func fuzzDecode(data []byte) (ClusterConfig, []fuzzRef) {
	r := &fuzzReader{b: data}
	var cc ClusterConfig
	for range 1 + r.pick(4) {
		cc.Devices = append(cc.Devices, r.device(false))
	}
	cc.Router = fuzzRouters[r.pick(len(fuzzRouters))]
	cc.Seed = uint64(r.byte())
	cc.SLOLatency = r.float()
	cc.Strategy = fuzzStrategies[r.pick(len(fuzzStrategies))]
	if r.pick(2) == 1 {
		a := &AutoscaleConfig{Policy: fuzzControllers[r.pick(len(fuzzControllers))]}
		a.Interval, a.WarmupDelay = r.float(), r.float()
		for range r.pick(3) {
			a.WarmPool = append(a.WarmPool, r.device(true))
		}
		a.MinDevices, a.MaxDevices, a.MaxTier = r.pick(4), r.pick(8), r.pick(4)
		cc.Autoscale = a
	}
	pool := 1 + r.pick(len(fuzzPoolRefs))
	refs := make([]fuzzRef, r.pick(65))
	at := 0.0
	for i := range refs {
		at += r.float()
		refs[i] = fuzzRef{problem: r.pick(pool), arrival: at, priority: r.pick(3)}
		if r.pick(4) == 0 {
			refs[i].deadline = at + r.float()
		}
	}
	return cc, refs
}

// fuzzWriter writes the fuzz format, for the seed corpus.
type fuzzWriter struct {
	b   []byte
	err error
}

func (w *fuzzWriter) byte(c int) {
	if c < 0 || c > 255 {
		w.err = errors.Join(w.err, fmt.Errorf("%d does not fit a byte", c))
	}
	w.b = append(w.b, byte(c))
}

// name writes the index of s in table.
func (w *fuzzWriter) name(table []string, s string) {
	for i, t := range table {
		if t == s {
			w.byte(i)
			return
		}
	}
	w.err = errors.Join(w.err, fmt.Errorf("%q is not in the table %q", s, table))
}

func (w *fuzzWriter) float(f float64) {
	for i, t := range fuzzFloats {
		if math.Float64bits(t) == math.Float64bits(f) {
			w.byte(i)
			return
		}
	}
	w.byte(255)
	bits := math.Float64bits(f)
	for i := 7; i >= 0; i-- {
		w.byte(int(bits >> (8 * i) & 0xff))
	}
}

func (w *fuzzWriter) device(d DeviceSpec, warm bool) {
	if d.Count > 1 || d.Name != "" || d.Pair != "" || d.Advanced != nil || d.KVPlane ||
		d.MemoryFraction != 0 || d.KVBudgetBytes != 0 || d.AllowOffload || d.BranchFactor != 0 || d.Strategy != "" {
		w.err = errors.Join(w.err, fmt.Errorf("device %+v has a field the fuzz format does not carry", d))
	}
	w.name(fuzzGPUs, d.GPU)
	w.name(fuzzAlgorithms, d.Algorithm)
	i := 0
	for i < len(fuzzBeams) && fuzzBeams[i] != d.NumBeams {
		i++
	}
	if i == len(fuzzBeams) {
		w.err = errors.Join(w.err, fmt.Errorf("width %d is not in the table %v", d.NumBeams, fuzzBeams))
	}
	w.byte(i)
	w.name([]string{"", string(ModeBaseline)}, string(d.Mode))
	w.byte(int(d.Seed))
	if d.KVPlaneBytes%(1<<24) != 0 {
		w.err = errors.Join(w.err, fmt.Errorf("KV plane of %d bytes is not a multiple of 16 MiB", d.KVPlaneBytes))
	}
	w.byte(int(d.KVPlaneBytes >> 24))
	w.name(fuzzPolicies, d.Policy)
	w.byte(d.MaxInFlight)
	w.float(d.Slowdown)
	if !warm {
		w.float(d.FailAt)
	}
}

// fuzzEncode writes a cluster config and a stream of catalog problem
// references, cut to 64 requests, in the fuzz format. A problem maps to
// the pool's problem of its dataset (few-shot datasets to the pool's
// few-shot problems), chosen by its index; arrivals become gaps.
func fuzzEncode(cc ClusterConfig, reqs []scenarioRequest) ([]byte, error) {
	w := &fuzzWriter{}
	if len(cc.Devices) < 1 || len(cc.Devices) > 4 || cc.Trace != nil {
		return nil, fmt.Errorf("%d devices or a recorder: the fuzz format carries 1 to 4 and none", len(cc.Devices))
	}
	w.byte(len(cc.Devices) - 1)
	for _, d := range cc.Devices {
		w.device(d, false)
	}
	w.name(fuzzRouters, cc.Router)
	w.byte(int(cc.Seed))
	w.float(cc.SLOLatency)
	w.name(fuzzStrategies, cc.Strategy)
	if a := cc.Autoscale; a == nil {
		w.byte(0)
	} else {
		w.byte(1)
		w.name(fuzzControllers, a.Policy)
		w.float(a.Interval)
		w.float(a.WarmupDelay)
		w.byte(len(a.WarmPool))
		for _, d := range a.WarmPool {
			w.device(d, true)
		}
		w.byte(a.MinDevices)
		w.byte(a.MaxDevices)
		w.byte(a.MaxTier)
	}
	w.byte(len(fuzzPoolRefs) - 1)
	reqs = reqs[:min(len(reqs), 64)]
	w.byte(len(reqs))
	at := 0.0
	for _, rq := range reqs {
		w.float(rq.arrival - at)
		at = rq.arrival
		var slots []int
		for i, ref := range fuzzPoolRefs {
			if ref.dataset == rq.dataset || strings.HasSuffix(rq.dataset, "-fewshot") && strings.HasSuffix(ref.dataset, "-fewshot") {
				slots = append(slots, i)
			}
		}
		if len(slots) == 0 {
			return nil, fmt.Errorf("no pool problem for dataset %s", rq.dataset)
		}
		w.byte(slots[rq.problem%len(slots)])
		w.byte(rq.priority)
		if rq.deadline != 0 {
			w.byte(0)
			w.float(rq.deadline - at)
		} else {
			w.byte(1)
		}
	}
	return w.b, w.err
}

// fuzzInput is one named cluster config and stream for the seed corpus.
type fuzzInput struct {
	name     string
	cluster  ClusterConfig
	requests []scenarioRequest
}

// fuzzHostile is the seed corpus's hostile inputs, each one a fix made
// earlier: NaN and ±Inf arrivals, an infinite straggler factor, an
// infinite control interval and warm-up delay, an idle device drained
// under a controller while its last slice ran past the tick, NaN and
// ±Inf fail times, and an empty strategy parameter.
func fuzzHostile() []fuzzInput {
	dev := func(gpu string, seed uint64) DeviceSpec {
		return DeviceSpec{Config: Config{GPU: gpu, NumBeams: 4, Seed: seed}}
	}
	two := []DeviceSpec{dev("RTX 4090", 1), dev("RTX 4070 Ti", 2)}
	stream := func(arrivals ...float64) []scenarioRequest {
		out := make([]scenarioRequest, len(arrivals))
		for i, at := range arrivals {
			out[i] = scenarioRequest{dataset: "MATH500", problem: i, arrival: at}
		}
		return out
	}
	var in []fuzzInput
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		in = append(in, fuzzInput{fmt.Sprintf("arrival %v", at), ClusterConfig{Devices: two}, stream(0, 1, at)})
	}
	slow := []DeviceSpec{dev("RTX 4090", 1), dev("RTX 4070 Ti", 2)}
	slow[1].Slowdown = math.Inf(1)
	in = append(in, fuzzInput{"infinite slowdown", ClusterConfig{Devices: slow}, stream(0, 1, 2)})
	for _, a := range []*AutoscaleConfig{
		{Policy: "threshold", Interval: math.Inf(1)},
		{Policy: "threshold", Interval: 5, WarmupDelay: math.Inf(1), WarmPool: []DeviceSpec{dev("RTX 4090", 9)}},
	} {
		in = append(in, fuzzInput{"infinite control time", ClusterConfig{Devices: two, Autoscale: a}, stream(0, 1, 2)})
	}
	in = append(in, fuzzInput{"idle drain", ClusterConfig{
		Devices: []DeviceSpec{dev("RTX 3070 Ti", 40), dev("RTX 4070 Ti", 41)},
		Router:  "rr",
		Seed:    3,
		Autoscale: &AutoscaleConfig{Policy: "pid", Interval: 6.776615268750975, WarmupDelay: 0.3632663709768715,
			WarmPool: []DeviceSpec{dev("RTX 4090", 70)}, MaxTier: 2},
	}, stream(1.2158659622045365, 1.9539291441397437, 4.815563323871517, 4.831437169733002)})
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		fail := []DeviceSpec{dev("RTX 4090", 1), dev("RTX 4070 Ti", 2)}
		fail[0].FailAt = at
		in = append(in, fuzzInput{fmt.Sprintf("fail at %v", at), ClusterConfig{Devices: fail}, stream(0, 1, 2)})
	}
	in = append(in, fuzzInput{"empty strategy parameter", ClusterConfig{Devices: two, Strategy: "hedged:"}, stream(0, 1, 2)})
	return in
}
