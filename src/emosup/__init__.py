"""emosup: cross-modal emotional supervision toolkit.

Builds personalized prompt/visual embedding alignment on top of frozen
encoders, regularizes generators by matching visual and text embedding
differences, and evaluates with Frechet/lip-sync/cosine metrics — all
verifiable end-to-end on a deterministic synthetic encoder world.
"""

from .analysis import (CrossModalSimilarityMatrix, GapReport, cross_modal_matrix,
                       derive_negative_pools, format_gap_report,
                       load_reference_gap_table, load_reference_matrix,
                       load_reference_pools, modality_gap_report,
                       pool_discrepancies)
from .corpus import (CorpusManifest, NegativePoolTable, Sample,
                     generate_synthetic_corpus, sample_contrastive_batch,
                     sample_pair_batch)
from .differencing import (DifferencePair, PairEmbeddings, diff_vectors,
                           difference_loss_with_grads, embed_pair,
                           export_difference_rows)
from .emotions import EMOTIONS, EmotionLabel, prompt_for
from .encoders import (EncoderSuite, SyntheticWorld, WorldConfig, build_synthetic_world,
                       load_precomputed_features, read_feature_file,
                       read_feature_manifest, synthetic_suite, write_feature_file)
from .errors import ContractError, GenerationError, NumericalError
from .metrics import (FeatureSet, GaussianFit, csim, fad, fit_gaussian,
                      frechet_distance, lse_d, metric_report)
from .numerics import (DenseLayer, MlpParams, contrastive_loss_with_grads,
                       cosine_with_flag, init_mlp, mlp_backward, mlp_forward,
                       psd_sqrt_trace, sgd_step)
from .prompts import (AlignmentCheckpoint, DifferenceRegularizer, LossCurve, TrainConfig,
                      build_personalized_prompt, pretrain_alignment,
                      pretrain_with_difference_objective, retrieval_accuracy)
from .supervision import (DEFAULT_LAMBDAS, DemoConfig, DemoReport, LambdaConfig,
                          lambda_for_baseline, squared_error_loss, supervise_demo,
                          sweep_lambda, total_loss)

__version__ = "0.1.0"
