"""Limited-feedback beamforming with random codebooks: loss laws, bounds,
orderings, skewed designs, and reproducible experiment presets."""

__version__ = "0.1.0"

from .channel import (ChannelRealization, FixedSpectrumModel, IIDModel,
                      KroneckerModel, normalize_power, sample_channel,
                      transmit_covariance)
from .errors import (DegenerateSpectrumError, ResourceLimitError, RvqlabError,
                     SingularCovarianceError, SingularSkewError,
                     UnsupportedModelError)
from .loss import (LossEstimate, avg_delta_mi, avg_delta_snr, delta1_appx,
                   delta1_asympt, delta1_exact, delta1_mc, delta1_miso,
                   delta1_quadrature, delta2_appx, delta2_asympt,
                   delta2_exact2, delta2_mc, delta2_quadrature, epsilon_b,
                   epsilon_b_log2, epsilon_b_prime, quantization_factors)
from .ordering import majorize_compare, schur_family, verify_schur
from .rng import RngStream, sample_unitary
from .skew import (SkewMatrix, build_skew_a2, closed_form_skew_a1,
                   delta1_sk_asympt, delta1_sk_mc, delta1_sk_quadrature,
                   delta1_sk_upper2, optimize_skew_a1, skew_diagnostics)
from .wnorm import WeightedNormLaw, cdf, pdf, sample_weighted_norms
