// Package topo is the hardware model: per-GPU compute parameters (HW) and
// the machine's interconnect hierarchy (Topology). It sits below both the
// search (which weights recursive steps by level bandwidth) and the
// simulator (which prices every transfer at the level it crosses), so
// neither has to depend on the other.
package topo

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tofu/internal/plan"
)

// HW describes a flat simulated machine: the per-GPU compute parameters plus
// one uniform peer link. It survives the topology refactor as the per-GPU
// half of a Topology.
type HW struct {
	NumGPUs     int   `json:"num_gpus"`
	GPUMemBytes int64 `json:"gpu_mem_bytes"`
	// PeakFLOPS is the per-GPU fp32 peak; efficiency curves scale it down.
	PeakFLOPS float64 `json:"peak_flops"`
	// MemBW bounds element-wise/reduction kernels (bytes/s).
	MemBW float64 `json:"mem_bw"`
	// P2PBandwidth is the per-GPU peer bandwidth (bytes/s) of the innermost
	// interconnect level.
	P2PBandwidth float64 `json:"p2p_bandwidth"`
	// HostBandwidth is the CPU link all of one host's GPUs share (bytes/s)
	// — the swap baseline's bottleneck.
	HostBandwidth float64 `json:"host_bandwidth"`
	// KernelOverhead is the fixed launch latency per kernel (seconds).
	KernelOverhead float64 `json:"kernel_overhead"`

	// Efficiency curve parameters: eff = Max * rows / (rows + Half).
	MatmulMaxEff   float64 `json:"matmul_max_eff"`
	MatmulHalfRows float64 `json:"matmul_half_rows"`
	ConvMaxEff     float64 `json:"conv_max_eff"`
	ConvHalfBatch  float64 `json:"conv_half_batch"`
	// SwapOverlap is the fraction of swap transfer hidden behind compute
	// (the baseline's prefetcher, Sec 7.1).
	SwapOverlap float64 `json:"swap_overlap"`
	// PipelineSyncOverhead is the scheduling/synchronization latency added
	// to every cross-GPU activation hand-off in operator placement.
	PipelineSyncOverhead float64 `json:"pipeline_sync_overhead"`
}

// DefaultHW is calibrated to the paper's p2.8xlarge: per-GPU throughput in
// the ballpark of a K80 GK210 (~4.4 TFLOPS peak, ~240 GB/s HBM), 21 GB/s
// peer-to-peer, 10 GB/s host link shared by all eight GPUs.
func DefaultHW() HW {
	return HW{
		NumGPUs:              8,
		GPUMemBytes:          12 << 30,
		PeakFLOPS:            5.1e12,
		MemBW:                240e9,
		P2PBandwidth:         21e9,
		HostBandwidth:        10e9,
		KernelOverhead:       20e-6,
		MatmulMaxEff:         0.80,
		MatmulHalfRows:       200,
		ConvMaxEff:           0.65,
		ConvHalfBatch:        2,
		SwapOverlap:          0.7,
		PipelineSyncOverhead: 10e-3,
	}
}

// Level is one tier of the interconnect hierarchy, innermost (fastest)
// first: an NVLink island inside a node, the PCIe complex of a node, an
// Ethernet/InfiniBand fabric between nodes.
type Level struct {
	// Name labels the tier ("nvlink", "pcie", "ethernet").
	Name string `json:"name"`
	// GroupSize is how many child units one group at this level contains:
	// GPUs for the innermost level, level-(l-1) groups above it. The product
	// over all levels is the machine's GPU count.
	GroupSize int64 `json:"group_size"`
	// Bandwidth is the per-GPU link bandwidth across this level (bytes/s).
	Bandwidth float64 `json:"bandwidth"`
	// Network marks tiers that cross host boundaries (Ethernet/IB); levels
	// below the first network tier share one host's CPU link.
	Network bool `json:"network,omitempty"`
}

// Topology describes the simulated machine as per-GPU compute parameters
// plus an ordered interconnect hierarchy. It replaces the flat HW struct as
// the hardware model the search, simulator, baselines and experiments
// consume; a single-level topology is exactly the old flat machine.
type Topology struct {
	// Name identifies the profile ("p2.8xlarge", "dgx1", "cluster-2x8", or
	// whatever a user-defined JSON file declares).
	Name string `json:"name"`
	// HW carries the per-GPU and host parameters. HW.NumGPUs must equal the
	// product of level group sizes and HW.P2PBandwidth the innermost level's
	// bandwidth (Validate enforces both), so HW-only consumers see a
	// consistent flat view.
	HW HW `json:"hw"`
	// Levels lists the interconnect tiers innermost first. Empty is treated
	// as one flat level at HW.P2PBandwidth.
	Levels []Level `json:"levels"`
}

// MaxGPUs bounds every machine and worker count the partitioner accepts, 4096
// times the largest built-in profile. It keeps outside input from reaching
// the search's trial-division factorization with an astronomically large
// count, and the product of level group sizes from overflowing.
const MaxGPUs = 1 << 20

// FlatTopology wraps a flat machine into a single-level topology — the
// compatibility path for HW-typed callers.
func FlatTopology(hw HW) Topology {
	return Topology{
		Name: "flat",
		HW:   hw,
		Levels: []Level{{
			Name:      "p2p",
			GroupSize: int64(hw.NumGPUs),
			Bandwidth: hw.P2PBandwidth,
		}},
	}
}

// DefaultTopology is the calibrated p2.8xlarge profile — the paper's
// testbed, and the profile on which every Figures 8-10 / Table 3 artifact is
// byte-identical to the flat-HW model.
func DefaultTopology() Topology {
	t := FlatTopology(DefaultHW())
	t.Name = "p2.8xlarge"
	t.Levels[0].Name = "pcie"
	return t
}

// DGX1Topology models a DGX-1-style NVLink box: two 4-GPU NVLink islands
// bridged by the PCIe complex. GPU compute parameters stay at the calibrated
// K80 values so plan differences against the default profile isolate the
// interconnect, not the silicon.
func DGX1Topology() Topology {
	hw := DefaultHW()
	hw.P2PBandwidth = 80e9 // NVLink peer bandwidth inside an island
	return Topology{
		Name: "dgx1",
		HW:   hw,
		Levels: []Level{
			{Name: "nvlink", GroupSize: 4, Bandwidth: 80e9},
			{Name: "pcie", GroupSize: 2, Bandwidth: 21e9},
		},
	}
}

// Cluster2x8Topology models two p2.8xlarge-style nodes joined by a 25 GbE
// fabric: PCIe inside each node, Ethernet between nodes.
func Cluster2x8Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 16
	return Topology{
		Name: "cluster-2x8",
		HW:   hw,
		Levels: []Level{
			{Name: "pcie", GroupSize: 8, Bandwidth: 21e9},
			{Name: "ethernet", GroupSize: 2, Bandwidth: 3.125e9, Network: true},
		},
	}
}

// DGX2Topology models a DGX-2-style NVSwitch box as three tiers: 4-GPU
// NVLink quads, the per-baseboard NVSwitch plane joining two quads, and the
// inter-baseboard bridge. GPU compute parameters stay at the calibrated K80
// values (as in DGX1Topology) so plan differences against the other
// profiles isolate the interconnect.
func DGX2Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 16
	hw.P2PBandwidth = 150e9
	return Topology{
		Name: "dgx2",
		HW:   hw,
		Levels: []Level{
			{Name: "nvlink", GroupSize: 4, Bandwidth: 150e9},
			{Name: "nvswitch", GroupSize: 2, Bandwidth: 120e9},
			{Name: "bridge", GroupSize: 2, Bandwidth: 50e9},
		},
	}
}

// Cluster4x2x8Topology models four dual-socket nodes of eight GPUs each
// (64 GPUs) joined by a 25 GbE fabric: PCIe inside a socket complex, the
// inter-socket link inside a node, Ethernet between nodes — the smallest
// 3-level cluster of the scaling experiments.
func Cluster4x2x8Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 64
	return Topology{
		Name: "cluster-4x2x8",
		HW:   hw,
		Levels: []Level{
			{Name: "pcie", GroupSize: 8, Bandwidth: 21e9},
			{Name: "qpi", GroupSize: 2, Bandwidth: 12e9},
			{Name: "ethernet", GroupSize: 4, Bandwidth: 3.125e9, Network: true},
		},
	}
}

// Cluster4x2x12Topology is the 96-GPU variant with twelve GPUs per socket
// complex. Its factor pool mixes a 3 with the 2s (12 = 3·2·2), which makes
// the factor-to-level ordering space both large (180 orderings — beyond the
// old enumeration cap) and heterogeneous: the optimal ordering can
// interleave levels, which the old level-block fallback could never
// express.
func Cluster4x2x12Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 96
	return Topology{
		Name: "cluster-4x2x12",
		HW:   hw,
		Levels: []Level{
			{Name: "pcie", GroupSize: 12, Bandwidth: 21e9},
			{Name: "qpi", GroupSize: 2, Bandwidth: 12e9},
			{Name: "ethernet", GroupSize: 4, Bandwidth: 3.125e9, Network: true},
		},
	}
}

// Cluster8x2x8Topology is the 128-GPU scaling point: eight dual-socket
// 8-GPU nodes. Its 140 candidate orderings put it past the old enumeration
// cap as well.
func Cluster8x2x8Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 128
	return Topology{
		Name: "cluster-8x2x8",
		HW:   hw,
		Levels: []Level{
			{Name: "pcie", GroupSize: 8, Bandwidth: 21e9},
			{Name: "qpi", GroupSize: 2, Bandwidth: 12e9},
			{Name: "ethernet", GroupSize: 8, Bandwidth: 3.125e9, Network: true},
		},
	}
}

// Cluster2x4x2x12Topology is the 192-GPU two-rack fleet point: per rack,
// four dual-socket nodes with twelve GPUs per socket complex, racks joined
// by an oversubscribed spine. The fourth (spine) level plus the mixed
// factor pool (12 = 3·2·2 alongside the 2s and a 4) makes this the
// deepest ordering space in the library, and one of the two profiles where
// the ordering branch-and-bound prunes.
func Cluster2x4x2x12Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 192
	return Topology{
		Name: "cluster-2x4x2x12",
		HW:   hw,
		Levels: []Level{
			{Name: "pcie", GroupSize: 12, Bandwidth: 21e9},
			{Name: "qpi", GroupSize: 2, Bandwidth: 12e9},
			{Name: "ethernet", GroupSize: 4, Bandwidth: 3.125e9, Network: true},
			{Name: "spine", GroupSize: 2, Bandwidth: 1.25e9, Network: true},
		},
	}
}

// Cluster2x8x2x8Topology is the 256-GPU two-rack fleet point: per rack,
// eight dual-socket 8-GPU nodes, racks joined by an oversubscribed spine.
// Like cluster-2x4x2x12 it adds a fourth communication tier whose
// bandwidth cliff (2.5x below rack Ethernet) rewards orderings the greedy
// level-block heuristic misses.
func Cluster2x8x2x8Topology() Topology {
	hw := DefaultHW()
	hw.NumGPUs = 256
	return Topology{
		Name: "cluster-2x8x2x8",
		HW:   hw,
		Levels: []Level{
			{Name: "pcie", GroupSize: 8, Bandwidth: 21e9},
			{Name: "qpi", GroupSize: 2, Bandwidth: 12e9},
			{Name: "ethernet", GroupSize: 8, Bandwidth: 3.125e9, Network: true},
			{Name: "spine", GroupSize: 2, Bandwidth: 1.25e9, Network: true},
		},
	}
}

// profiles is the library of named machines.
var profiles = map[string]func() Topology{
	"p2.8xlarge":     DefaultTopology,
	"dgx1":           DGX1Topology,
	"dgx2":           DGX2Topology,
	"cluster-2x8":    Cluster2x8Topology,
	"cluster-4x2x8":  Cluster4x2x8Topology,
	"cluster-4x2x12": Cluster4x2x12Topology,
	"cluster-8x2x8":  Cluster8x2x8Topology,

	"cluster-2x4x2x12": Cluster2x4x2x12Topology,
	"cluster-2x8x2x8":  Cluster2x8x2x8Topology,
}

// Profile returns a named topology from the library.
func Profile(name string) (Topology, error) {
	fn, ok := profiles[name]
	if !ok {
		return Topology{}, fmt.Errorf("topo: unknown hardware profile %q (have %s)",
			name, strings.Join(ProfileNames(), ", "))
	}
	return fn(), nil
}

// ProfileNames lists the library, sorted.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ResolveTopology interprets a -hw argument: a profile name from the
// library, or a path to a user-defined topology JSON file.
func ResolveTopology(arg string) (Topology, error) {
	if _, ok := profiles[arg]; ok {
		return Profile(arg)
	}
	if strings.ContainsAny(arg, "./\\") {
		return LoadTopology(arg)
	}
	return Topology{}, fmt.Errorf("topo: %q is neither a profile (%s) nor a .json path",
		arg, strings.Join(ProfileNames(), ", "))
}

// Validate checks internal consistency: positive level parameters, HW.NumGPUs
// equal to the product of group sizes, and HW.P2PBandwidth equal to the
// innermost bandwidth.
func (t Topology) Validate() error {
	if len(t.Levels) == 0 {
		return fmt.Errorf("topo: topology %q has no levels", t.Name)
	}
	if t.HW.NumGPUs < 1 || t.HW.NumGPUs > MaxGPUs {
		return fmt.Errorf("topo: topology %q: num_gpus %d outside [1, %d]", t.Name, t.HW.NumGPUs, MaxGPUs)
	}
	prod := int64(1)
	for i, l := range t.Levels {
		if l.GroupSize < 1 || l.GroupSize > MaxGPUs {
			return fmt.Errorf("topo: topology %q level %d (%s): group size %d outside [1, %d]", t.Name, i, l.Name, l.GroupSize, MaxGPUs)
		}
		if l.Bandwidth <= 0 {
			return fmt.Errorf("topo: topology %q level %d (%s): bandwidth %g invalid", t.Name, i, l.Name, l.Bandwidth)
		}
		// Both factors are at most MaxGPUs, so the product cannot wrap.
		if prod *= l.GroupSize; prod > MaxGPUs {
			return fmt.Errorf("topo: topology %q: more than %d GPUs at level %d (%s)", t.Name, MaxGPUs, i, l.Name)
		}
	}
	if int64(t.HW.NumGPUs) != prod {
		return fmt.Errorf("topo: topology %q: HW.NumGPUs %d != product of level group sizes %d",
			t.Name, t.HW.NumGPUs, prod)
	}
	if t.HW.P2PBandwidth != t.Levels[0].Bandwidth {
		return fmt.Errorf("topo: topology %q: HW.P2PBandwidth %g != innermost level bandwidth %g",
			t.Name, t.HW.P2PBandwidth, t.Levels[0].Bandwidth)
	}
	return nil
}

// NumGPUs is the machine's total device count.
func (t Topology) NumGPUs() int {
	if len(t.Levels) == 0 {
		return t.HW.NumGPUs
	}
	prod := int64(1)
	for _, l := range t.Levels {
		prod *= l.GroupSize
	}
	return int(prod)
}

// LevelBandwidth prices a transfer crossing level l; out-of-range indices
// clamp (a plan annotated for a deeper machine bottlenecks on the slowest
// level this machine has).
func (t Topology) LevelBandwidth(l int) float64 {
	if len(t.Levels) == 0 {
		return t.HW.P2PBandwidth
	}
	if l < 0 {
		l = 0
	}
	if l >= len(t.Levels) {
		l = len(t.Levels) - 1
	}
	return t.Levels[l].Bandwidth
}

// LinkBandwidth is the bandwidth of the narrowest level a transfer between
// GPUs a and b crosses: the innermost level whose group contains both.
func (t Topology) LinkBandwidth(a, b int) float64 {
	if a == b || len(t.Levels) == 0 {
		return t.HW.P2PBandwidth
	}
	span := int64(1)
	for _, l := range t.Levels {
		span *= l.GroupSize
		if int64(a)/span == int64(b)/span {
			return l.Bandwidth
		}
	}
	return t.Levels[len(t.Levels)-1].Bandwidth
}

// GPUsPerHost counts the devices sharing one host CPU link: everything below
// the first network level (the whole machine when no level is a network).
func (t Topology) GPUsPerHost() int {
	if len(t.Levels) == 0 {
		return t.HW.NumGPUs
	}
	per := int64(1)
	for _, l := range t.Levels {
		if l.Network {
			break
		}
		per *= l.GroupSize
	}
	return int(per)
}

// Hierarchical reports whether the machine has more than one distinct tier —
// when false, the topology-aware search reduces exactly to the flat one.
func (t Topology) Hierarchical() bool { return len(t.Levels) > 1 }

// WriteJSON serializes the topology for user-defined machine files.
func (t Topology) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// CanonicalJSON is the stable content encoding of the machine: the per-GPU
// parameters and interconnect levels with the profile name AND the level
// labels stripped — names are documentation, not hardware. Two topologies
// that describe the same machine — a built-in profile and a user JSON file
// with different labels — canonicalize to identical bytes, so content
// digests built over it (the partition service's plan cache key) treat them
// as the same machine.
func (t Topology) CanonicalJSON() ([]byte, error) {
	// Empty Levels is defined as one flat level at HW.P2PBandwidth; spell
	// that out (before validating — Validate requires explicit levels) so
	// the implicit and explicit forms hash alike.
	levels := t.Levels
	if len(levels) == 0 {
		levels = FlatTopology(t.HW).Levels
	}
	norm := Topology{Name: t.Name, HW: t.HW, Levels: levels}
	if err := norm.Validate(); err != nil {
		return nil, err
	}
	type canonicalLevel struct {
		GroupSize int64   `json:"group_size"`
		Bandwidth float64 `json:"bandwidth"`
		Network   bool    `json:"network,omitempty"`
	}
	cl := make([]canonicalLevel, len(levels))
	for i, l := range levels {
		cl[i] = canonicalLevel{GroupSize: l.GroupSize, Bandwidth: l.Bandwidth, Network: l.Network}
	}
	return json.Marshal(struct {
		HW     HW               `json:"hw"`
		Levels []canonicalLevel `json:"levels"`
	}{norm.HW, cl})
}

// ReadTopology parses and validates a topology. Unknown fields are errors:
// a misspelled field would otherwise silently decode to a zero value that
// Validate cannot always catch (e.g. a level's Network flag).
func ReadTopology(r io.Reader) (Topology, error) {
	var t Topology
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("topo: decoding topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// LoadTopology reads a user-defined machine from a JSON file.
func LoadTopology(path string) (Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, fmt.Errorf("topo: %w", err)
	}
	defer f.Close()
	t, err := ReadTopology(f)
	if err != nil {
		return Topology{}, fmt.Errorf("topo: %s: %w", path, err)
	}
	return t, nil
}

// AssignLevels annotates a plan searched without topology awareness with the
// layout a topology-blind runtime produces: ranks are enumerated in the
// scheduler's default cyclic order (one per node, round-robin), so the
// recursive numbering digits map to levels innermost first — step 1's
// exchange partners land on the fastest links and the LAST (by Theorem 2 the
// most communication-heavy) step's partners land across the slowest. Each
// step consumes its factor from the innermost level with remaining capacity;
// a step spanning several levels (EqualChop's single K-way chop) crosses
// them all and prices at the narrowest — the outermost it touches. Steps
// already annotated (any non-zero level) are left alone.
func (t Topology) AssignLevels(p *plan.Plan) {
	if p == nil || !t.Hierarchical() {
		return
	}
	for _, s := range p.Steps {
		if s.Level != 0 {
			return // already annotated by a topology-aware search
		}
	}
	// Effective per-level capacity for this plan's worker count: cyclic
	// placement spreads ranks across every outer group first, so a plan for
	// fewer workers than the machine keeps the outer levels' group counts
	// and shrinks the innermost (8 workers on the 2x8 cluster sit 4 per
	// node: capacities [4 2], and the last step still crosses Ethernet).
	// For a full-machine plan this is exactly the level group sizes.
	remaining := make([]int64, len(t.Levels))
	kk := p.K
	for li := len(t.Levels) - 1; li >= 0; li-- {
		g := gcd(t.Levels[li].GroupSize, kk)
		remaining[li] = g
		kk /= g
	}
	for _, s := range p.Steps {
		need := s.K
		level := 0
		for li := 0; li < len(remaining) && need > 1; li++ {
			if g := gcd(remaining[li], need); g > 1 {
				remaining[li] /= g
				need /= g
				level = li
			}
		}
		s.Level = level
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
