package fasttts

import (
	"fmt"
	"math"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/metrics"
	"fasttts/internal/search"
)

// DeviceSpec describes one member (or a homogeneous group of members) of
// a heterogeneous edge fleet: a full deployment Config (GPU, model pair,
// search algorithm, seed) plus the device's serving policy and
// fault-injection knobs.
type DeviceSpec struct {
	Config
	// Name labels the device in telemetry and errors. Optional; non-empty
	// names must be unique across the fleet (and the warm pool). Unnamed
	// devices get "device-N" by fleet index; a Count > 1 group expands to
	// "name#0", "name#1", ...
	Name string
	// Count replicates this spec into that many identical fleet members
	// (each gets its own engine seeded from Config.Seed + replica). The
	// zero value means 1; negative counts are rejected.
	Count int
	// Policy names the device's admission/ordering discipline ("fcfs",
	// "sjf", "priority", "deadline"); empty means fcfs.
	Policy string
	// MaxInFlight, when positive, sheds arrivals beyond this many
	// admitted unfinished requests on this device.
	MaxInFlight int
	// Slowdown is the straggler factor: wall-clock stretch of every
	// device slice (thermal throttling, background load). 0 (the zero
	// value) and 1 mean none; negative, NaN and infinite values are
	// rejected.
	Slowdown float64
	// FailAt, when positive, fail-stops the device at that fleet time:
	// it finishes its in-progress slice, then all its unfinished requests
	// are requeued to the surviving devices (partial work lost). NaN and
	// ±Inf are rejected.
	FailAt float64
}

// AutoscaleConfig attaches the elastic control plane to a cluster: a
// feedback controller observes the fleet at a fixed interval and
// actuates warm-pool joins, drain-and-remove scale-downs, and
// compute-budget tiers. See the package docs' "Elastic serving" section.
type AutoscaleConfig struct {
	// Policy names the controller: "static" (observe only), "threshold"
	// (hysteresis scaling on queue delay and utilization), "pid"
	// (PID-style queue-delay tracking), or "budget" (vertical-only
	// compute-budget governor). Empty means static.
	Policy string
	// Interval is the control period in fleet seconds; required > 0 and
	// finite.
	Interval float64
	// WarmPool holds device templates scale-ups instantiate (round-robin;
	// a drained instance returns its slot). Templates must not carry
	// FailAt. Count expands templates exactly like fleet devices.
	WarmPool []DeviceSpec
	// WarmupDelay is how long after a scale-up decision the new device
	// becomes routable (model load and cache prefill); 0 joins instantly.
	// It must be finite.
	WarmupDelay float64
	// MinDevices floors the routable device count drains may reach
	// (default 1); MaxDevices caps routable+warming devices (default
	// fleet size + warm-pool size). A floor above the cap, once defaults
	// are filled in, is an error.
	MinDevices, MaxDevices int
	// MaxTier is the deepest compute-budget degradation tier (each tier
	// halves the effective search width); 0 selects the default of 2.
	MaxTier int
}

// ClusterConfig configures a fleet of heterogeneous edge devices serving
// one request stream behind a router.
type ClusterConfig struct {
	Devices []DeviceSpec
	// Router names the request-routing discipline:
	//
	//	single      pass-through to the first alive device
	//	rr          round-robin (default)
	//	least-work  smallest estimated outstanding work / device speed
	//	jsq         join the shortest queue
	//	p2c         power-of-two-choices on expected drain time
	//	prefix      prefix-affinity with load fallback (§4.2, inter-device)
	//	cache-aware drain time plus re-prefill debt of non-resident prompt
	//	            tokens (needs Config.KVPlane; degenerates to least-work
	//	            without it)
	Router string
	// Seed drives the router's randomness (p2c) and the controller's;
	// device engines draw from their own Config seeds. Equal seeds give
	// bit-identical fleet runs, controller actions included.
	Seed uint64
	// SLOLatency is the per-request wall-latency target in seconds used
	// by FleetRun.Stats and the controller's SLO-attainment signal; 0
	// disables SLO accounting. The "deadline" strategy also derives each
	// request's deadline from this target.
	SLOLatency float64
	// Strategy names the fleet-wide test-time-compute strategy:
	// "full-beam", "first-finish" (optionally "first-finish:k"),
	// "deadline" (early-terminate requests whose SLOLatency-derived
	// deadline passes mid-solve), or "hedged" (replicate every fresh
	// arrival to a second device and cancel the losing copy the instant
	// the first completes; needs at least 2 devices). Empty disables
	// strategies — runs are then bit-identical to pre-strategy builds.
	// The budget governor degrades the strategy to first-finish while its
	// tier is above 0, alongside the width degradation.
	Strategy string
	// Autoscale, when non-nil, attaches the elastic control plane.
	Autoscale *AutoscaleConfig
	// Trace, when non-nil, attaches the span flight recorder: every Run
	// records request lifecycles on each device plus the fleet control
	// plane (routing decisions, hedge twins, requeues, ticks, joins,
	// drains) without perturbing the run, and FleetStats gains the
	// latency-attribution rollup. The recorder accumulates across Runs;
	// call Recorder.Reset between them for per-run traces. See Recorder.
	Trace *Recorder
}

// FleetResult is one fleet-served request: the usual ServedResult plus
// which device produced it and how often failures migrated it.
type FleetResult struct {
	ServedResult
	// Device is the fleet index of the serving (or rejecting) device; -1
	// for requests shed because no device survived to serve them.
	Device int
	// Requeues counts how many device failures displaced this request
	// before this outcome.
	Requeues int
}

// ScalingAction is one applied controller decision in a fleet run's
// action log: its decision tick Time; Action "scale-up", "scale-down" or
// "set-tier"; the controller's Requested magnitude and the Applied one
// after clamping (the resulting tier for "set-tier"); and the Devices
// (fleet indexes) it touched.
type ScalingAction = control.Record

// ControlStats summarizes the elastic control plane's activity over a
// fleet run: Ticks observed; ScaleUps, ScaleDowns and TierChanges
// applied; the FinalTier in effect at the end; PeakDevices, the most
// devices routable at once; and DegradedRequests served at a narrowed
// search width.
type ControlStats = metrics.ControlStats

// FleetDeviceStats aggregates one device's run: its fleet index Device
// and Name (DeviceSpec.Name, "device-N", or "warm:name+J" for the
// controller's J-th warm-pool instance); Served requests and their
// useful Tokens; BusyTime executing slices (lost work included), its
// Utilization over the live interval and Goodput per live second;
// LiveStart (when it became routable) and LiveSeconds (join to
// fail/drain/makespan); Failed and Drained flags; and KV memory-plane
// telemetry, all zero with Config.KVPlane off: CacheCapacityTokens,
// CacheUsedTokens and their ratio CacheOccupancy at run end,
// prompt-prefix CacheHitTokens, CacheMissTokens, CacheEvictedTokens,
// and the ReprefillSeconds charged for prompt misses.
type FleetDeviceStats = metrics.FleetDeviceStats

// FleetStats aggregates a fleet-served request stream: the server-level
// aggregates over the merged stream plus fleet-only metrics.
type FleetStats struct {
	ServeStats
	PerDevice []FleetDeviceStats
	// ImbalanceCV is the load-imbalance coefficient: the coefficient of
	// variation of per-device busy time (0 = perfectly balanced),
	// time-weighted over each device's live interval so late joiners and
	// drained devices don't read as imbalance.
	ImbalanceCV float64
	// Requeues counts failure-induced request migrations.
	Requeues int
	// PrefixHitRate is the fleet prompt-prefix KV hit rate in tokens (0
	// when no prefix traffic).
	PrefixHitRate float64
	// CacheHitRate is the fleet KV memory-plane hit rate in tokens:
	// unlike PrefixHitRate (the routing directory's estimate), it
	// reflects actual residency after capacity eviction. Zero when
	// Config.KVPlane is off fleet-wide.
	CacheHitRate float64
	// CacheHitTokens / CacheMissTokens / CacheEvictedTokens sum the
	// per-device memory-plane counters; ReprefillSeconds is the fleet's
	// total re-prefill latency charged for prompt misses.
	CacheHitTokens     int64
	CacheMissTokens    int64
	CacheEvictedTokens int64
	ReprefillSeconds   float64
	FailedDevices      int
	// DeviceSeconds is the fleet's capacity cost: the summed live time of
	// every member. The SLO-vs-cost tradeoff compares it against
	// SLOAttainment across controllers.
	DeviceSeconds float64
	// Control summarizes the controller's activity; nil without one.
	Control *ControlStats
	// Attribution is the latency-attribution rollup over finished
	// requests; non-nil only when ClusterConfig.Trace attached a
	// recorder to the run.
	Attribution *AttributionStats
}

// Cluster serves request streams with a fleet of heterogeneous edge
// devices. Each device runs its own multi-tenant serving engine (its own
// GPU, model pair, policy, and virtual clock); a pluggable router assigns
// every request to a device at its arrival instant; device fail-stops
// requeue unfinished work to the survivors. With Autoscale configured,
// an elastic control plane additionally grows the fleet from a warm
// pool, drains it back down, and governs the per-request compute budget
// from observed load. A 1-device cluster with the "single" router
// reproduces Server's results exactly. Clusters are reusable: every Run
// builds a fresh fleet, so equal seeds give bit-identical runs.
//
// The underlying fleet core dispatches arrivals, failures, joins, and
// control ticks from event heaps and reads per-device load from O(1)
// incremental indexes, so Run scales to fleets of hundreds to thousands
// of devices — scheduling overhead grows with events·log(devices), not
// events·devices.
type Cluster struct {
	// cfg is the validated fleet configuration. Its router and controller
	// carry per-run state, so newFleet gives every Run fresh ones.
	cfg cluster.Config
}

// FleetRun is the outcome of one Cluster.Run.
type FleetRun struct {
	// Results holds per-request outcomes in fleet event order (each
	// device's completions in completion order, interleaved at global
	// event granularity).
	Results []FleetResult
	// Actions is the controller's applied-action log in decision order;
	// nil without Autoscale. Equal seeds give bit-identical logs.
	Actions []ScalingAction
	stats   FleetStats
}

// Stats returns the fleet-level aggregates of the run, computed with the
// cluster's SLOLatency.
func (fr *FleetRun) Stats() FleetStats { return fr.stats }

// expandDeviceSpecs validates a spec list and expands Count groups into
// concrete named per-device configs. seen tracks explicit names across
// lists (fleet + warm pool).
func expandDeviceSpecs(specs []DeviceSpec, kind, defPrefix string, seen map[string]bool) ([]cluster.Device, error) {
	var devices []cluster.Device
	for i, spec := range specs {
		if spec.Count < 0 {
			return nil, fmt.Errorf("fasttts: %s %d (%s): Count must be positive, got %d (0 selects 1)",
				kind, i, describeSpec(spec, i), spec.Count)
		}
		if spec.Slowdown < 0 || math.IsNaN(spec.Slowdown) || math.IsInf(spec.Slowdown, 1) {
			return nil, fmt.Errorf("fasttts: %s %d (%s): Slowdown must be non-negative and finite, got %v (0 means none)",
				kind, i, describeSpec(spec, i), spec.Slowdown)
		}
		if spec.KVPlaneBytes < 0 {
			return nil, fmt.Errorf("fasttts: %s %d (%s): KVPlaneBytes must be non-negative, got %d (0 disables the memory plane)",
				kind, i, describeSpec(spec, i), spec.KVPlaneBytes)
		}
		if math.IsNaN(spec.FailAt) || math.IsInf(spec.FailAt, 0) {
			return nil, fmt.Errorf("fasttts: %s %d (%s): FailAt is %v; it must be finite (0 means never)",
				kind, i, describeSpec(spec, i), spec.FailAt)
		}
		if spec.Name != "" {
			if seen[spec.Name] {
				return nil, fmt.Errorf("fasttts: duplicate device name %q: names identify devices in telemetry and must be unique",
					spec.Name)
			}
			seen[spec.Name] = true
		}
		count := spec.Count
		if count == 0 {
			count = 1
		}
		for rep := 0; rep < count; rep++ {
			cfg := spec.Config
			cfg.Seed = spec.Config.Seed + uint64(rep)
			coreCfg, err := buildCoreConfig(cfg)
			if err != nil {
				return nil, fmt.Errorf("fasttts: %s %d (%s): %w", kind, i, describeSpec(spec, i), err)
			}
			pol, err := servePolicy(spec.Policy, spec.MaxInFlight)
			if err != nil {
				return nil, fmt.Errorf("fasttts: %s %d (%s): %w", kind, i, describeSpec(spec, i), err)
			}
			name := spec.Name
			switch {
			case name == "":
				name = fmt.Sprintf("%s-%d", defPrefix, len(devices))
			case count > 1:
				name = fmt.Sprintf("%s#%d", spec.Name, rep)
			}
			// Derived names (positional and replica-suffixed) share the
			// namespace with explicit ones: an explicit "device-1" next to
			// an unnamed second device, or "a#0" next to a Count group
			// named "a", would reproduce exactly the ambiguous telemetry
			// the uniqueness rule exists to prevent.
			if name != spec.Name && seen[name] {
				return nil, fmt.Errorf("fasttts: device name %q collides with the derived name of %s %d (%s): names identify devices in telemetry and must be unique",
					name, kind, i, describeSpec(spec, i))
			}
			seen[name] = true
			devices = append(devices, cluster.Device{
				Name:     name,
				Config:   coreCfg,
				Policy:   pol,
				Slowdown: spec.Slowdown,
				FailAt:   spec.FailAt,
			})
		}
	}
	return devices, nil
}

// describeSpec names a spec in errors without relying on validation
// having succeeded.
func describeSpec(spec DeviceSpec, i int) string {
	if spec.Name != "" {
		return spec.Name
	}
	if spec.GPU != "" {
		return spec.GPU
	}
	return fmt.Sprintf("spec %d", i)
}

// NewCluster validates the configuration and builds the cluster.
func NewCluster(cc ClusterConfig) (*Cluster, error) {
	if len(cc.Devices) == 0 {
		return nil, fmt.Errorf("fasttts: cluster needs at least one device")
	}
	if err := checkSLO(cc.SLOLatency); err != nil {
		return nil, err
	}
	router, err := cluster.RouterByName(cc.Router)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	devices, err := expandDeviceSpecs(cc.Devices, "device", "device", seen)
	if err != nil {
		return nil, err
	}
	strat, err := search.ParseStrategy(cc.Strategy)
	if err != nil {
		return nil, fmt.Errorf("fasttts: %w", err)
	}
	c := &Cluster{cfg: cluster.Config{
		Devices: devices, Router: router, Seed: cc.Seed,
		SLOLatency: cc.SLOLatency, Strategy: strat, Obs: cc.Trace.rec(),
	}}
	if a := cc.Autoscale; a != nil {
		ctl, err := control.ByName(a.Policy)
		if err != nil {
			return nil, err
		}
		warm, err := expandDeviceSpecs(a.WarmPool, "warm-pool template", "tmpl", seen)
		if err != nil {
			return nil, err
		}
		maxTier := a.MaxTier
		if maxTier == 0 {
			maxTier = 2
		}
		c.cfg.Control = &cluster.ControlConfig{
			Controller:  ctl,
			Interval:    a.Interval,
			Warm:        warm,
			WarmupDelay: a.WarmupDelay,
			MinDevices:  a.MinDevices,
			MaxDevices:  a.MaxDevices,
			MaxTier:     maxTier,
			SLOLatency:  cc.SLOLatency,
		}
	}
	// Fail fast on anything fleet construction itself would reject.
	if _, err := c.newFleet(); err != nil {
		return nil, err
	}
	return c, nil
}

// newFleet builds a fleet from the validated config with a fresh router
// and controller, so equal seeds give bit-identical runs.
func (c *Cluster) newFleet() (*cluster.Fleet, error) {
	cfg := c.cfg
	var err error
	if cfg.Router, err = cluster.RouterByName(cfg.Router.Name()); err != nil {
		return nil, err
	}
	if cfg.Control != nil {
		ctl := *cfg.Control
		if ctl.Controller, err = control.ByName(ctl.Controller.Name()); err != nil {
			return nil, err
		}
		cfg.Control = &ctl
	}
	return cluster.New(cfg)
}

// Run serves an open-loop request stream across the fleet.
func (c *Cluster) Run(reqs []Request) (*FleetRun, error) {
	fleet, err := c.newFleet()
	if err != nil {
		return nil, err
	}
	inner, err := coreRequests(reqs)
	if err != nil {
		return nil, err
	}
	out, err := fleet.Run(inner)
	if err != nil {
		return nil, err
	}
	batch := newResultBatch(len(out.Results), func(i int) bool { return out.Results[i].Result != nil })
	fr := &FleetRun{Results: make([]FleetResult, len(out.Results))}
	for i := range out.Results {
		r := &out.Results[i]
		fr.Results[i] = FleetResult{
			ServedResult: wrapServedResult(&r.ServedResult, &batch, reqs[r.Tag].Problem),
			Device:       r.Device,
			Requeues:     r.Requeues,
		}
	}
	fr.Actions = out.Actions
	m := out.Stats(c.cfg.SLOLatency)
	fr.stats = FleetStats{
		ServeStats:         m.ServeStats,
		PerDevice:          m.Devices,
		ImbalanceCV:        m.ImbalanceCV,
		Requeues:           m.Requeues,
		PrefixHitRate:      m.PrefixHitRate,
		CacheHitRate:       m.CacheHitRate,
		CacheHitTokens:     m.CacheHitTokens,
		CacheMissTokens:    m.CacheMissTokens,
		CacheEvictedTokens: m.CacheEvictedTokens,
		ReprefillSeconds:   m.ReprefillSeconds,
		FailedDevices:      m.FailedDevices,
		DeviceSeconds:      m.DeviceSeconds,
		Control:            m.Control,
		Attribution:        m.Attribution,
	}
	return fr, nil
}
