package scenario

import (
	"hetopt/internal/dna"
	"hetopt/internal/graph"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// This file ships the built-in catalog: the paper's scenario (the four
// DNA genomes on the 2x Xeon E5 + Xeon Phi platform) as the default,
// three further workload families spanning the arithmetic-intensity
// spectrum, and two further platform specs. The families are calibrated
// so the optimizer genuinely chooses different distributions per
// scenario: bandwidth-bound irregular kernels (spmv) shift work toward
// the host, vector-friendly streaming kernels (stencil) toward the
// device, and compute-bound scalar kernels (crypto) predominantly onto
// the host — the cross-scenario table in internal/experiments renders
// the effect.

// DNAFamily returns the paper's workload family: the four evaluation
// genomes as size presets. Preset workload names keep the organism
// names, so resolving "human" through the registry is bit-identical to
// offload.GenomeWorkload(dna.Human).
func DNAFamily() Family {
	gs := dna.Genomes()
	presets := make([]SizePreset, len(gs))
	for i, g := range gs {
		presets[i] = SizePreset{
			Name:         g.Name,
			SizeMB:       g.SizeMB,
			Complexity:   g.Complexity,
			WorkloadName: g.Name,
		}
	}
	return Family{
		Name:        "dna",
		Description: "Aho-Corasick DNA motif matching over GenBank genomes (the paper's workload)",
		Complexity:  1,
		Presets:     presets,
	}
}

// SpMVFamily returns a sparse matrix-vector multiply family: very low
// arithmetic intensity (index loads and vector gathers move ~10 bytes
// per input byte) and irregular access that throughput-oriented device
// cores handle poorly. The optimizer keeps most of the work on the
// host's large caches.
func SpMVFamily() Family {
	return Family{
		Name:             "spmv",
		Description:      "sparse matrix-vector multiply (CSR): bandwidth-bound, irregular gathers",
		Complexity:       0.6,
		BytesPerByte:     10,
		HostRateFactor:   1.15,
		DeviceRateFactor: 0.5,
		Presets: []SizePreset{
			{Name: "medium", SizeMB: 2048},
			{Name: "small", SizeMB: 512},
			{Name: "large", SizeMB: 8192},
		},
	}
}

// StencilFamily returns a structured-grid stencil family: regular,
// vector-friendly streaming that wide-SIMD devices execute far above
// the DNA reference rate, still bandwidth-hungry (each cell touches its
// neighborhood). The optimizer shifts work toward the device wherever
// the device's vector units outrun the host — on the edge platform
// nearly everything moves across.
func StencilFamily() Family {
	return Family{
		Name:             "stencil",
		Description:      "structured-grid stencil sweep: bandwidth-bound, vector-friendly streaming",
		Complexity:       0.8,
		BytesPerByte:     4,
		HostRateFactor:   0.9,
		DeviceRateFactor: 2.2,
		Presets: []SizePreset{
			{Name: "medium", SizeMB: 1536},
			{Name: "small", SizeMB: 384},
			{Name: "large", SizeMB: 6144},
		},
	}
}

// CryptoFamily returns a compute-bound kernel family: heavy scalar
// arithmetic per byte (long dependency chains, little memory traffic)
// that simple in-order device cores execute at a fraction of the
// reference rate. The optimizer keeps the bulk of the work on the host
// on every platform.
func CryptoFamily() Family {
	return Family{
		Name:             "crypto",
		Description:      "password-hashing style kernel: compute-bound scalar chains, negligible memory traffic",
		Complexity:       4,
		BytesPerByte:     0.2,
		HostRateFactor:   1.0,
		DeviceRateFactor: 0.3,
		Presets: []SizePreset{
			{Name: "medium", SizeMB: 1024},
			{Name: "small", SizeMB: 256},
			{Name: "large", SizeMB: 4096},
		},
	}
}

// DAGFamily returns the task-graph workload family: the shipped graph
// presets (internal/graph) exposed through the registry, so
// "dag:resnet-ish" resolves with the same canonical-name and
// did-you-mean machinery as "dna:human". Preset sizes are the graphs'
// total node work, keeping size-based listings uniform across classes.
func DAGFamily() Family {
	gs := graph.Presets()
	presets := make([]SizePreset, len(gs))
	for i := range gs {
		g := gs[i]
		presets[i] = SizePreset{
			Name:   g.Name,
			SizeMB: g.TotalWorkMB(),
			Graph:  &g,
		}
	}
	return Family{
		Name:        "dag",
		Description: "task graphs placed node-by-node across host and device (list-scheduling simulator)",
		Class:       ClassDAG,
		Presets:     presets,
	}
}

// PaperPlatform returns the paper's platform spec: the 2x Xeon E5-2695v2
// host with the Xeon Phi 7120P and the default calibration over the
// paper's 19,926-configuration space. Resolving it is bit-identical to
// offload.NewPlatform() + space.PaperSchema().
func PaperPlatform() PlatformSpec {
	return PlatformSpec{
		Name:        "paper",
		Description: "2x Intel Xeon E5-2695v2 + Intel Xeon Phi 7120P (the paper's testbed)",
		Host:        machine.XeonE5Host,
		Device:      machine.XeonPhi7120P,
		Cal:         perf.DefaultCalibration,
		Space:       space.PaperSpec(),
		// PCIe gen2 x16 to the Phi; a per-transfer DMA setup round-trip
		// is milliseconds-scale, far below the full offload engagement
		// cost (which pays runtime init the graph layer amortizes).
		LinkBandwidthMBs: 6500,
		LinkLatencySec:   0.0025,
	}
}

// gpuLikeHost is a modern 16-core single-socket server host.
func gpuLikeHost() *machine.Processor {
	return &machine.Processor{
		Name:            "16-core server CPU",
		Sockets:         1,
		CoresPerSocket:  16,
		ThreadsPerCore:  2,
		BaseClockGHz:    2.9,
		MaxClockGHz:     4.0,
		CacheMB:         40,
		MemBandwidthGBs: 90,
		MemoryGB:        256,
		VectorBits:      512,
		Affinities:      []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
	}
}

// gpuLikeDevice is a discrete GPU-like accelerator: many simple cores,
// very high aggregate throughput and memory bandwidth.
func gpuLikeDevice() *machine.Processor {
	return &machine.Processor{
		Name:            "GPU-like accelerator",
		Sockets:         1,
		CoresPerSocket:  128, // compute units
		ThreadsPerCore:  16,  // resident warps per unit
		BaseClockGHz:    1.4,
		MaxClockGHz:     1.8,
		CacheMB:         48,
		MemBandwidthGBs: 900,
		MemoryGB:        48,
		VectorBits:      1024,
		Affinities:      []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
	}
}

// GPULikePlatform returns a platform spec for a GPU-class accelerator:
// an order of magnitude more device throughput than the Phi, but
// costlier engagement — higher launch latency, a larger non-overlapped
// transfer residual, and a card that burns real power the moment it is
// engaged. Host-only stays attractive for small inputs and poorly
// mapping kernels; everything else shifts device-heavy.
func GPULikePlatform() PlatformSpec {
	return PlatformSpec{
		Name:        "gpu-like",
		Description: "16-core server CPU + GPU-like accelerator (high throughput, costly engagement)",
		Host:        gpuLikeHost,
		Device:      gpuLikeDevice,
		Cal: func() perf.Calibration {
			return perf.Calibration{
				HostCoreRateMBs:    340,
				HostSMTGain:        []float64{1.0, 1.25},
				HostCoreScalingExp: 0.95,
				HostSetupSec:       0.03,
				HostThreadSpawnSec: 0.0002,
				HostCompactBonus:   1.02,
				HostNonePenalty:    0.97,

				DeviceCoreRateMBs:    28,
				DeviceSMTGain:        []float64{1.0, 1.9, 2.7, 3.3, 3.8, 4.1, 4.3, 4.4},
				DeviceCoreScalingExp: 0.99,
				DeviceSetupSec:       0.01,
				DeviceThreadSpawnSec: 0.000002,
				DeviceBalancedBonus:  1.04,
				DeviceCompactBonus:   1.0,

				OffloadLatencySec: 0.35,
				PCIeRateMBs:       12000,
				TransferResidual:  0.08,

				BandwidthEfficiency: 0.85,
				BytesPerByte:        1.0,

				OversubscriptionDecay: 0.995,

				NoiseStdHost:    0.025,
				NoiseStdDevice:  0.030,
				NoiseNoneFactor: 1.4,
				NoiseSeed:       0xC2B2AE3D27D4EB4F,

				HostIdleW:           65,
				HostCoreActiveW:     5.5,
				HostThreadActiveW:   0.4,
				DeviceIdleW:         80,
				DeviceCoreActiveW:   1.9,
				DeviceThreadActiveW: 0.02,
				HostNonePowerFactor: 1.05,

				NoiseStdHostPower:   0.015,
				NoiseStdDevicePower: 0.015,
			}
		},
		Space: space.SchemaSpec{
			HostThreads:      []int{2, 4, 8, 16, 24, 32},
			HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
			DeviceThreads:    []int{128, 256, 512, 1024, 2048},
			DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
			Fractions:        space.PaperSpec().Fractions,
		},
		// PCIe gen4 x16 with resident kernels: per-transfer cost is a
		// launch/sync round-trip, not the full 0.35 s engagement.
		LinkBandwidthMBs: 12000,
		LinkLatencySec:   0.0015,
	}
}

// edgeHost is a small embedded quad-core.
func edgeHost() *machine.Processor {
	return &machine.Processor{
		Name:            "embedded quad-core CPU",
		Sockets:         1,
		CoresPerSocket:  4,
		ThreadsPerCore:  2,
		BaseClockGHz:    1.8,
		MaxClockGHz:     2.4,
		CacheMB:         4,
		MemBandwidthGBs: 25.6,
		MemoryGB:        8,
		VectorBits:      128,
		Affinities:      []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
	}
}

// edgeDevice is a small on-package accelerator (NPU-style).
func edgeDevice() *machine.Processor {
	return &machine.Processor{
		Name:            "on-package NPU",
		Sockets:         1,
		CoresPerSocket:  16,
		ThreadsPerCore:  4,
		BaseClockGHz:    1.0,
		MaxClockGHz:     1.2,
		CacheMB:         8,
		MemBandwidthGBs: 68,
		MemoryGB:        8,
		VectorBits:      256,
		Affinities:      []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
	}
}

// EdgePlatform returns a power-constrained edge platform spec: a small
// host with an on-package accelerator sharing memory — engagement is
// nearly free (no PCIe hop), but absolute throughput and power budgets
// are tiny, which makes the energy objective bite.
func EdgePlatform() PlatformSpec {
	return PlatformSpec{
		Name:        "edge",
		Description: "embedded quad-core + on-package NPU (shared memory, tight power budget)",
		Host:        edgeHost,
		Device:      edgeDevice,
		Cal: func() perf.Calibration {
			return perf.Calibration{
				HostCoreRateMBs:    120,
				HostSMTGain:        []float64{1.0, 1.2},
				HostCoreScalingExp: 0.96,
				HostSetupSec:       0.02,
				HostThreadSpawnSec: 0.0003,
				HostCompactBonus:   1.01,
				HostNonePenalty:    0.95,

				DeviceCoreRateMBs:    30,
				DeviceSMTGain:        []float64{1.0, 1.7, 2.1, 2.3},
				DeviceCoreScalingExp: 0.98,
				DeviceSetupSec:       0.005,
				DeviceThreadSpawnSec: 0.00002,
				DeviceBalancedBonus:  1.02,
				DeviceCompactBonus:   1.01,

				// On-package: no PCIe hop, engagement is nearly free.
				OffloadLatencySec: 0.008,
				PCIeRateMBs:       20000,
				TransferResidual:  0.005,

				BandwidthEfficiency: 0.75,
				BytesPerByte:        1.0,

				OversubscriptionDecay: 0.96,

				NoiseStdHost:    0.040,
				NoiseStdDevice:  0.030,
				NoiseNoneFactor: 1.6,
				NoiseSeed:       0xA24BAED4963EE407,

				HostIdleW:           3.5,
				HostCoreActiveW:     1.1,
				HostThreadActiveW:   0.15,
				DeviceIdleW:         1.5,
				DeviceCoreActiveW:   0.35,
				DeviceThreadActiveW: 0.02,
				HostNonePowerFactor: 1.08,

				NoiseStdHostPower:   0.02,
				NoiseStdDevicePower: 0.02,
			}
		},
		Space: space.SchemaSpec{
			HostThreads:      []int{1, 2, 4, 8},
			HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
			DeviceThreads:    []int{4, 8, 16, 32, 64},
			DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
			Fractions:        space.PaperSpec().Fractions,
		},
		// Shared memory: a transfer is a cache handoff, nearly free.
		LinkBandwidthMBs: 20000,
		LinkLatencySec:   0.0002,
	}
}

// Builtin returns a registry populated with the shipped catalog: the
// dna, spmv, stencil and crypto divisible families, the dag task-graph
// family, and the paper, gpu-like and edge platforms. The catalog is
// statically valid; registration cannot fail.
func Builtin() *Registry {
	r := NewRegistry()
	for _, f := range []Family{DNAFamily(), SpMVFamily(), StencilFamily(), CryptoFamily(), DAGFamily()} {
		if err := r.RegisterFamily(f); err != nil {
			panic(err)
		}
	}
	for _, p := range []PlatformSpec{PaperPlatform(), GPULikePlatform(), EdgePlatform()} {
		if err := r.RegisterPlatform(p); err != nil {
			panic(err)
		}
	}
	return r
}

// defaultRegistry is the process-wide catalog behind the package-level
// accessors.
var defaultRegistry = Builtin()

// Default returns the process-wide registry holding the built-in
// catalog; libraries and applications may register additional scenarios
// on it.
func Default() *Registry { return defaultRegistry }

// Package-level conveniences over the default registry.

// Families lists the registered workload families.
func Families() []Family { return defaultRegistry.Families() }

// Platforms lists the registered platform specs.
func Platforms() []PlatformSpec { return defaultRegistry.Platforms() }

// FamilyByName looks a workload family up in the default registry.
func FamilyByName(name string) (Family, error) { return defaultRegistry.Family(name) }

// PlatformByName looks a platform spec up in the default registry.
func PlatformByName(name string) (PlatformSpec, error) { return defaultRegistry.Platform(name) }

// Resolve parses a workload name against the default registry.
func Resolve(name string) (Family, SizePreset, error) { return defaultRegistry.Resolve(name) }

// Lookup resolves a (platform, workload) name pair against the default
// registry.
func Lookup(platformName, workloadName string) (Scenario, error) {
	return defaultRegistry.Lookup(platformName, workloadName)
}

// ResolveWorkload resolves a workload name against the default registry.
func ResolveWorkload(name string) (offload.Workload, error) {
	return defaultRegistry.ResolveWorkload(name)
}

// CanonicalWorkloadName canonicalizes a workload name against the
// default registry.
func CanonicalWorkloadName(name string) (string, error) {
	return defaultRegistry.CanonicalWorkloadName(name)
}

// WorkloadNames lists every resolvable workload name in the default
// registry.
func WorkloadNames() []string { return defaultRegistry.WorkloadNames() }

// PlatformNames lists the registered platform names in the default
// registry.
func PlatformNames() []string { return defaultRegistry.PlatformNames() }
