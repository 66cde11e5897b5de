package sim

import "strings"

// KernelClass buckets operators by their performance regime: dense linear
// algebra runs on the matmul efficiency curve, convolutions on the conv
// curve, and everything else is memory-bandwidth bound.
type KernelClass int

const (
	ClassMatmul KernelClass = iota
	ClassConv
	ClassMemBound
)

func (c KernelClass) String() string {
	switch c {
	case ClassMatmul:
		return "matmul"
	case ClassConv:
		return "conv"
	default:
		return "membound"
	}
}

// kernelClasses is the explicit class table for every operator in the
// standard TDL registry. The simulator's cost model consults it before the
// prefix heuristics, so no standard operator is classified by fallthrough —
// TestStandardRegistryClassifiesIntentionally enforces full coverage.
var kernelClasses = map[string]KernelClass{
	// Dense linear algebra: the matmul efficiency curve.
	"matmul": ClassMatmul, "matmul_nt": ClassMatmul, "matmul_tn": ClassMatmul,
	// Attention kernels are batched matmuls (the old prefix switch let
	// bmm/linear3d fall through to memory-bound).
	"bmm": ClassMatmul, "bmm_nt": ClassMatmul, "bmm_tn": ClassMatmul,
	"linear3d": ClassMatmul, "linear3d_bwd_data": ClassMatmul, "linear3d_bwd_weight": ClassMatmul,
	// Batched dense solvers/factorizations.
	"batch_cholesky": ClassMatmul, "batch_inverse": ClassMatmul,
	"batch_lu": ClassMatmul, "batch_trsm": ClassMatmul,

	// Convolutions: the conv efficiency curve.
	"conv1d": ClassConv, "conv2d": ClassConv,
	"conv2d_bwd_data": ClassConv, "conv2d_bwd_weight": ClassConv,
	"depthwise_conv2d": ClassConv, "dilated_conv2d": ClassConv,

	// Everything below is memory-bandwidth bound.
	// Elementwise unary.
	"abs": ClassMemBound, "arccos": ClassMemBound, "arcsin": ClassMemBound,
	"arctan": ClassMemBound, "cast": ClassMemBound, "cbrt": ClassMemBound,
	"ceil": ClassMemBound, "cos": ClassMemBound, "cosh": ClassMemBound,
	"degrees": ClassMemBound, "dropout": ClassMemBound, "dropout_grad": ClassMemBound,
	"elu": ClassMemBound, "elu_grad": ClassMemBound, "erf": ClassMemBound,
	"exp": ClassMemBound, "exp2": ClassMemBound, "expm1": ClassMemBound,
	"floor": ClassMemBound, "gamma_fn": ClassMemBound, "gammaln": ClassMemBound,
	"gelu": ClassMemBound, "gelu_grad": ClassMemBound, "hard_sigmoid": ClassMemBound,
	"identity": ClassMemBound, "leaky_relu": ClassMemBound, "leaky_relu_grad": ClassMemBound,
	"log": ClassMemBound, "log10": ClassMemBound, "log1p": ClassMemBound,
	"log2": ClassMemBound, "logical_not": ClassMemBound, "mish": ClassMemBound,
	"negate": ClassMemBound, "ones_like": ClassMemBound, "radians": ClassMemBound,
	"reciprocal": ClassMemBound, "relu": ClassMemBound, "relu_grad": ClassMemBound,
	"round": ClassMemBound, "rsqrt": ClassMemBound, "scale": ClassMemBound,
	"selu": ClassMemBound, "sigmoid": ClassMemBound, "sigmoid_grad": ClassMemBound,
	"sign": ClassMemBound, "sin": ClassMemBound, "sinh": ClassMemBound,
	"softplus": ClassMemBound, "softplus_grad": ClassMemBound, "softsign": ClassMemBound,
	"sqrt": ClassMemBound, "square": ClassMemBound, "swish": ClassMemBound,
	"swish_grad": ClassMemBound, "tan": ClassMemBound, "tanh": ClassMemBound,
	"tanh_grad": ClassMemBound, "zeros_like": ClassMemBound,
	// Elementwise binary/ternary.
	"add": ClassMemBound, "arctan2": ClassMemBound, "clip": ClassMemBound,
	"clip_grad": ClassMemBound, "div": ClassMemBound, "equal": ClassMemBound,
	"fma": ClassMemBound, "greater": ClassMemBound, "greater_equal": ClassMemBound,
	"hypot": ClassMemBound, "lesser": ClassMemBound, "lesser_equal": ClassMemBound,
	"logical_and": ClassMemBound, "logical_or": ClassMemBound, "logical_xor": ClassMemBound,
	"maximum": ClassMemBound, "minimum": ClassMemBound, "mod": ClassMemBound,
	"mul": ClassMemBound, "not_equal": ClassMemBound, "power": ClassMemBound,
	"smooth_l1": ClassMemBound, "smooth_l1_grad": ClassMemBound, "sub": ClassMemBound,
	"where": ClassMemBound,
	// Reductions, broadcasts and data movement.
	"absmax_per_channel": ClassMemBound, "bias_add": ClassMemBound,
	"bouter": ClassMemBound, "broadcast_add_col": ClassMemBound,
	"broadcast_div_col": ClassMemBound, "broadcast_mul_col": ClassMemBound,
	"broadcast_mul_row": ClassMemBound, "btranspose": ClassMemBound,
	"gather_rows": ClassMemBound, "l2_normalize": ClassMemBound,
	"last_token": ClassMemBound, "last_token_grad": ClassMemBound,
	"one_hot": ClassMemBound, "reduce_max_axis0": ClassMemBound,
	"reduce_max_axis1": ClassMemBound, "reduce_min_axis0": ClassMemBound,
	"reduce_min_axis1": ClassMemBound, "reduce_prod_axis0": ClassMemBound,
	"reduce_prod_axis1": ClassMemBound, "reduce_sum_axis0": ClassMemBound,
	"reduce_sum_axis1": ClassMemBound, "repeat_row": ClassMemBound,
	"reverse_axis1": ClassMemBound, "scale_shift_nchw": ClassMemBound,
	"slice_axis0": ClassMemBound,
	"slice_axis1": ClassMemBound, "slice_axis1_grad": ClassMemBound,
	"sqnorm_axis1": ClassMemBound, "stride_rows": ClassMemBound,
	"transpose": ClassMemBound,
	// Pooling and normalization.
	"avgpool2d": ClassMemBound, "global_avgpool": ClassMemBound,
	"global_avgpool_grad": ClassMemBound, "maxpool2d": ClassMemBound,
	"maxpool2d_grad": ClassMemBound,
	"bn_beta_grad":   ClassMemBound, "bn_data_grad": ClassMemBound,
	"bn_gamma_grad": ClassMemBound, "bn_mean": ClassMemBound,
	"bn_norm": ClassMemBound, "bn_var": ClassMemBound,
	"ln3_beta_grad": ClassMemBound, "ln3_data_grad": ClassMemBound,
	"ln3_gamma_grad": ClassMemBound, "ln3_mean": ClassMemBound,
	"ln3_norm": ClassMemBound, "ln3_var": ClassMemBound,
	"ln_mean": ClassMemBound, "ln_norm": ClassMemBound, "ln_var": ClassMemBound,
	// Softmax/loss and optimizer updates.
	"log_softmax": ClassMemBound, "softmax": ClassMemBound,
	"softmax_axis2": ClassMemBound, "softmax_axis2_grad": ClassMemBound,
	"softmax_ce_grad": ClassMemBound,
	"adam_update":     ClassMemBound, "sgd_mom_update": ClassMemBound,
	"sgd_update": ClassMemBound,
}

// Classify maps an operator to its performance class: the explicit table
// first, then prefix heuristics for custom operators outside the table.
func Classify(op string) KernelClass {
	if c, ok := kernelClasses[op]; ok {
		return c
	}
	switch {
	case strings.HasPrefix(op, "matmul"):
		return ClassMatmul
	case strings.HasPrefix(op, "conv"):
		return ClassConv
	case strings.HasPrefix(op, "batch_"): // batched dense linear algebra
		return ClassMatmul
	default:
		return ClassMemBound
	}
}
