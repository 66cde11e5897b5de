package dp

import (
	"fmt"
	"math"
	"time"
)

// FlatReport measures the single-level multi-dimensional DP — the paper's
// "DP with coarsening" row in Table 1. Without recursion, every tensor may
// be partitioned along any combination of dimensions (20 ways for a 4-D
// tensor across 8 workers), so the per-group combinatorial search explodes;
// the paper measured 8 hours for WResNet-152 and >24 hours for RNN-10. The
// search runs under a wall-clock budget and extrapolates the completion time
// from the measured evaluation rate and the exact remaining combination
// count.
type FlatReport struct {
	Completed      bool
	Elapsed        time.Duration
	EstimatedTotal time.Duration
	Evaluated      int64   // (state x combo) group evaluations performed
	TotalConfigs   float64 // exact total evaluations the full run needs
	CommBytes      float64 // plan cost when the search completed
}

// SolveFlat runs the non-recursive multi-dimensional DP with a wall-clock
// budget. factors is the cut sequence a config represents (e.g. [2,2,2] for
// 8 workers); each variable's configuration is a multiset of dimensions of
// that length. The per-level slot pricing rides the same dense cost tables
// as the recursive search (one table set per factor level); frontier states
// are packed config-index keys.
//
//tofu:allow-nondet wall-clock budget accounting for the Table-1 baseline; elapsed time never reaches plan bytes or the digest-keyed cache
func SolveFlat(p *Problem, factors []int64, budget time.Duration) (*FlatReport, error) {
	c := p.Coarse
	rep := &FlatReport{}
	start := time.Now()

	// Enumerate per-variable multiset configurations, honoring cumulative
	// divisibility (cutting dim d c times needs the extent divisible by the
	// product of those factors).
	varConfigs := make(map[int][][]int, len(c.Vars))
	for _, v := range c.Vars {
		if v.First < 0 {
			continue
		}
		s := p.Shapes[v.Tensors[0].ID]
		var combos [][]int
		var build func(prefix []int, startDim int, level int)
		build = func(prefix []int, startDim int, level int) {
			if level == len(factors) {
				combos = append(combos, append([]int(nil), prefix...))
				return
			}
			for d := startDim; d < s.Rank(); d++ {
				// Exact divisibility: product of all factors applied to d.
				ways := factors[level]
				for i, pd := range prefix {
					if pd == d {
						ways *= factors[i]
					}
				}
				if s.Dim(d)%ways != 0 || s.Dim(d) < ways {
					continue
				}
				build(append(prefix, d), d, level+1)
			}
		}
		build(nil, 0, 0)
		if len(combos) == 0 {
			return nil, fmt.Errorf("dp: flat search: variable %v cannot be divided %v ways", v, factors)
		}
		if len(combos) > 1<<16 {
			return nil, fmt.Errorf("dp: flat search: variable %v has %d configurations", v, len(combos))
		}
		varConfigs[v.ID] = combos
	}

	// Exact total evaluation count of the full DP (states x new combos per
	// group), computed without running it.
	for gi, g := range c.Groups {
		states := 1.0
		if gi > 0 {
			for _, v := range c.Groups[gi-1].LiveAfter {
				states *= float64(len(varConfigs[v.ID]))
			}
		}
		comboCount := 1.0
		for _, v := range g.NewVars {
			comboCount *= float64(len(varConfigs[v.ID]))
		}
		rep.TotalConfigs += states * comboCount
	}

	// Slot evaluators (and dense cost tables) per factor level — shapes are
	// original at every level (see Problem's pricing note), so each level's
	// table set is exactly the recursive search's for that K, and equal
	// factors share one set.
	levelEvals := make([]*slotSet, len(factors))
	byK := map[int64]*slotSet{}
	for li, k := range factors {
		if ss, ok := byK[k]; ok {
			levelEvals[li] = ss
			continue
		}
		sub := &Problem{Coarse: c, K: k, Shapes: p.Shapes, DType: p.DType,
			StrategyFilter: p.StrategyFilter, Parallelism: p.Parallelism, Cache: p.Cache}
		ss, err := prepareSlotEvals(sub)
		if err != nil {
			return nil, err
		}
		byK[k] = ss
		levelEvals[li] = ss
	}

	// cfg holds the current configuration index of every variable; the
	// group cost prices each slot per level through its table.
	cfg := make([]int32, len(c.Vars))
	groupCost := func(gi int) (float64, bool) {
		total := 0.0
		for si := range c.Groups[gi].Slots {
			for li := range factors {
				ev := levelEvals[li].byGroup[gi][si]
				ti := 0
				for j, v := range ev.tvars {
					d := varConfigs[v.ID][cfg[v.ID]][li]
					dg := ev.alphas[v.ID].digitOf[d]
					if dg < 0 {
						return 0, false
					}
					ti += ev.tstride[j] * int(dg)
				}
				_, cost := ev.bestAt(ti) // pre-multiplied by multiplicity
				total += cost
			}
		}
		return total, true
	}

	// Frontier DP over multiset configurations, keyed by packed config
	// indices (two bytes per live variable).
	states := map[string]float64{"": 0}
	for gi, g := range c.Groups {
		nCombos := int64(1)
		for _, v := range g.NewVars {
			nCombos *= int64(len(varConfigs[v.ID]))
		}
		keyBuf := make([]byte, 2*len(g.LiveAfter))
		next := make(map[string]float64)
		for key, stCost := range states {
			if gi > 0 {
				live := c.Groups[gi-1].LiveAfter
				for b, v := range live {
					cfg[v.ID] = int32(key[2*b])<<8 | int32(key[2*b+1])
				}
			}
			for ci := int64(0); ci < nCombos; ci++ {
				// Never bail before the first batch: extrapolation needs a
				// nonzero measured rate even when setup ate the whole budget
				// (tiny budgets, race-detector builds).
				if rep.Evaluated > 0 && rep.Evaluated%512 == 0 && time.Since(start) > budget {
					rep.Elapsed = time.Since(start)
					rate := float64(rep.Evaluated) / rep.Elapsed.Seconds()
					if rate > 0 {
						rep.EstimatedTotal = time.Duration(rep.TotalConfigs / rate * float64(time.Second))
					}
					return rep, nil
				}
				rep.Evaluated++
				rem := ci
				for j := len(g.NewVars) - 1; j >= 0; j-- {
					n := int64(len(varConfigs[g.NewVars[j].ID]))
					cfg[g.NewVars[j].ID] = int32(rem % n)
					rem /= n
				}
				cost, ok := groupCost(gi)
				if !ok {
					continue
				}
				cost += stCost
				for b, v := range g.LiveAfter {
					keyBuf[2*b] = byte(cfg[v.ID] >> 8)
					keyBuf[2*b+1] = byte(cfg[v.ID])
				}
				if old, seen := next[string(keyBuf)]; !seen || cost < old {
					next[string(keyBuf)] = cost
				}
			}
		}
		states = next
		if len(states) == 0 {
			return nil, fmt.Errorf("dp: flat search infeasible at group %d", gi)
		}
	}
	best := math.Inf(1)
	for _, cost := range states {
		if cost < best {
			best = cost
		}
	}
	rep.Completed = true
	rep.Elapsed = time.Since(start)
	rep.EstimatedTotal = rep.Elapsed
	rep.CommBytes = best
	return rep, nil
}
