package sim

import (
	"testing"

	"tofu/internal/tdl"
)

// TestStandardRegistryClassifiesIntentionally enforces the kernel-class
// table's coverage contract: every operator in the standard TDL registry has
// an explicit class entry, so no standard kernel is priced by the prefix
// fallthrough.
func TestStandardRegistryClassifiesIntentionally(t *testing.T) {
	for _, op := range tdl.Std.Names() {
		if _, ok := kernelClasses[op]; !ok {
			t.Errorf("op %q has no explicit kernel class (classified by fallthrough as %v)",
				op, Classify(op))
		}
	}
}

func TestAttentionOpsAreMatmulClass(t *testing.T) {
	// The old prefix switch let the attention kernels fall through to
	// memory-bound; they are batched matmuls.
	for _, op := range []string{"bmm", "bmm_nt", "bmm_tn", "linear3d", "linear3d_bwd_data", "linear3d_bwd_weight"} {
		if got := Classify(op); got != ClassMatmul {
			t.Errorf("Classify(%s) = %v, want matmul", op, got)
		}
	}
}

func TestCustomOpFallback(t *testing.T) {
	// Custom ops outside the table classify by prefix.
	if got := Classify("matmul_custom_variant"); got != ClassMatmul {
		t.Errorf("prefix fallback broken: %v", got)
	}
	if got := Classify("my_fancy_elementwise"); got != ClassMemBound {
		t.Errorf("default fallback broken: %v", got)
	}
}
