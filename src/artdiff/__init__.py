"""artdiff: a desk-scale diffusion sampling stack with verification oracles
and a prompt-extension scoring pipeline."""

from .numerics import RngStream, Tensor, softmax
from .schedule import (NoiseSchedule, SamplingTimeline, linear_schedule,
                       subsequence)
from .samplers import (SamplingPlan, cfg_combine, ddim_step, ddpm_step,
                       plms_combine, plms_sample, posterior_mean_from_eps,
                       sample)
from .denoisers import (ConditionTokens, EpsilonPredictor, GaussianOracle,
                        LabelEmbedding, ToyDenoiser, ToyDenoiserParams,
                        TrainConfig, init_toy_denoiser, time_embedding,
                        toy_denoiser_forward, train)
from .latentae import (AeTrainConfig, MomentPair, ToyAutoencoderParams,
                       decode, encode_moments, gan_loss_component,
                       init_toy_autoencoder, kl_loss, recon_loss,
                       reparam_sample, train_toy_ae)
from .promptx import (ArtworkMeta, Bm25Index, Document, FixtureGenerator,
                      Gazetteer, HashEmbedder, PromptCandidate, TfidfModel,
                      artist_histogram, bm25_search, build_index,
                      compose_caption, cosine, entity_count, extend_prompt,
                      score_candidate, tfidf_fit, tfidf_score, tokenize)
from .errors import ConfigError, TrainingDivergedError

__version__ = "0.1.0"
