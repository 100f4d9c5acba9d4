package stamp

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tm"
	"repro/internal/txlib"
)

// KMeans models STAMP's kmeans: many small transactions that add a point
// into its nearest cluster's accumulator. Cluster centers are fixed for
// the measured kernel (the reduction between k-means iterations is not
// the transactional part), so assignment is deterministic and the final
// accumulators are exactly checkable.
//
// Contention is set by the cluster count: the paper's high-contention
// configuration uses few clusters (every transaction fights over the same
// accumulator lines), the low-contention one many.
type KMeans struct {
	Points     int
	Clusters   int
	Dims       int
	Iterations int
	Seed       uint64

	threads    int
	pointsBase uint64
	accBase    uint64
	accStride  uint64
	coords     [][]int64 // Go-side copy for assignment + validation
	centers    [][]int64
	assign     []int
}

// KMeansDistCycles is the compute charged per point-to-center distance.
const KMeansDistCycles = 20

// KMeansHigh returns the paper's high-contention configuration, scaled.
func KMeansHigh(points int) *KMeans {
	return &KMeans{Points: points, Clusters: 4, Dims: 4, Iterations: 1, Seed: 11}
}

// KMeansLow returns the low-contention configuration, scaled.
func KMeansLow(points int) *KMeans {
	return &KMeans{Points: points, Clusters: 48, Dims: 4, Iterations: 1, Seed: 11}
}

// Init implements Workload.
func (k *KMeans) Init(m *machine.Machine, threads int) {
	if k.Iterations == 0 {
		k.Iterations = 1
	}
	k.threads = threads
	r := sim.NewRand(k.Seed)
	d := txlib.Direct{M: m}

	// Points: one line each (Dims ≤ 8 words).
	k.pointsBase = m.Mem.Sbrk(uint64(k.Points) * mem.LineBytes)
	// coords and centers are rows of one slab.
	slab := make([]int64, (k.Points+k.Clusters)*k.Dims)
	row := func(n int) []int64 { return slab[n*k.Dims : (n+1)*k.Dims] }
	k.coords = make([][]int64, k.Points)
	for i := range k.coords {
		k.coords[i] = row(i)
		for j := 0; j < k.Dims; j++ {
			v := int64(r.Intn(1000))
			k.coords[i][j] = v
			d.Store(k.pointsBase+uint64(i)*mem.LineBytes+uint64(j)*8, uint64(v))
		}
	}
	// Fixed centers.
	k.centers = make([][]int64, k.Clusters)
	for c := range k.centers {
		k.centers[c] = row(k.Points + c)
		for j := 0; j < k.Dims; j++ {
			k.centers[c][j] = int64(r.Intn(1000))
		}
	}
	// Deterministic assignment (used by both the workload and Validate).
	k.assign = make([]int, k.Points)
	for i := range k.assign {
		k.assign[i] = k.nearest(k.coords[i])
	}
	// Accumulators: one line per cluster: [count, sum_0..sum_{D-1}].
	k.accStride = mem.LineBytes
	k.accBase = m.Mem.Sbrk(uint64(k.Clusters) * k.accStride)
	for c := 0; c < k.Clusters; c++ {
		for w := uint64(0); w < 8; w++ {
			d.Store(k.accBase+uint64(c)*k.accStride+w*8, 0)
		}
	}
}

func (k *KMeans) nearest(p []int64) int {
	best, bestD := 0, int64(1)<<62
	for c, ctr := range k.centers {
		var dist int64
		for j := range ctr {
			dd := p[j] - ctr[j]
			dist += dd * dd
		}
		if dist < bestD {
			bestD = dist
			best = c
		}
	}
	return best
}

// Thread implements Workload.
func (k *KMeans) Thread(i int, ex tm.Exec) {
	lo, hi := split(k.Points, k.threads, i)
	// The transactional kernel: fold the point into its cluster. Built
	// once, over the point and accumulator the loop assigns.
	var (
		pt  int
		acc uint64
	)
	fold := func(tx tm.Tx) {
		tx.Store(acc, tx.Load(acc)+1)
		for j := 0; j < k.Dims; j++ {
			a := acc + 8 + uint64(j)*8
			tx.Store(a, tx.Load(a)+uint64(k.coords[pt][j]))
		}
	}
	for it := 0; it < k.Iterations; it++ {
		for pt = lo; pt < hi; pt++ {
			// Read the point (non-transactional: points are read-only).
			base := k.pointsBase + uint64(pt)*mem.LineBytes
			for j := 0; j < k.Dims; j++ {
				ex.Load(base + uint64(j)*8)
			}
			// Distance computation against every center.
			ex.Proc().Elapse(KMeansDistCycles * uint64(k.Clusters))
			acc = k.accBase + uint64(k.assign[pt])*k.accStride
			ex.Atomic(fold)
		}
	}
}

// Validate implements Workload: the accumulators must hold exactly
// Iterations× the per-cluster counts and coordinate sums.
func (k *KMeans) Validate(m *machine.Machine) error {
	d := txlib.Direct{M: m}
	sums := make([]uint64, k.Dims)
	for c := 0; c < k.Clusters; c++ {
		var count uint64
		clear(sums)
		for pt := 0; pt < k.Points; pt++ {
			if k.assign[pt] == c {
				count++
				for j := 0; j < k.Dims; j++ {
					sums[j] += uint64(k.coords[pt][j])
				}
			}
		}
		acc := k.accBase + uint64(c)*k.accStride
		it := uint64(k.Iterations)
		if got := d.Load(acc); got != count*it {
			return validErr("kmeans", "cluster %d count = %d, want %d", c, got, count*it)
		}
		for j := 0; j < k.Dims; j++ {
			if got := d.Load(acc + 8 + uint64(j)*8); got != sums[j]*it {
				return validErr("kmeans", "cluster %d dim %d sum = %d, want %d", c, j, got, sums[j]*it)
			}
		}
	}
	return nil
}
