#!/usr/bin/env python3
"""Compressing visually-acquired knowledge into a text-only student.

Deployment often cannot ship an image tower. The workaround: first
train a fusion teacher on image/caption pairs, then train a plain text
encoder to imitate it over a caption-only corpus. The imitation loss
mixes masked prediction with an activation-matching term, the squared
maximum mean discrepancy between teacher and student block activations
under a polynomial kernel.

The knob worth watching is the transfer weight. At zero the student
ignores the teacher entirely and the run replays plain masked-language
training step for step, which this demo verifies bit for bit.
"""

from cmkt.checkpoint import restore_text_encoder
from cmkt.distillation import DistillSpec, distill
from cmkt.objectives import nst_loss
from cmkt.synth import SynthConfig, generate_world
from cmkt.training import PretrainConfig, TrainingData, pretrain

world = generate_world(SynthConfig(n_train_pairs=64, n_retrieval=16, seed=1))
data = TrainingData(pairs=world.pairs, vocab=world.vocab, bank=world.bank)
config = PretrainConfig(
    batch_size=16, max_len=16, learning_rate=0.05, epochs=4, seed=0,
    dim=32, ffn_dim=64, num_blocks=2, dropout=0.1,
)

print("=== 1. train the fusion teacher: CMCL on image/caption pairs ===")
teacher = pretrain("CMCL", data, config)
print(f"teacher final loss: {teacher.loss_rows[-1]['total']:.4f}\n")

print("=== 2. distill into a text-only student ===")
student = distill(
    teacher.final, data, DistillSpec(mlm_weight=1.0, nst_weight=1.0), config
)
last = student.loss_rows[-1]
print(f"student final: total={last['total']:.4f} "
      f"mlm={last['mlm']:.4f} nst={last['nst']:.4f}\n")

print("=== 3. activation matching actually pulled the student over ===")
t_enc, vocab = restore_text_encoder(teacher.final)
s_enc, _ = restore_text_encoder(student.final)
probe = [[5, 6, 7, 8], [9, 10, 11], [12, 13]]
t_act = t_enc.encode(probe)
s_act = s_enc.encode(probe)
fresh = pretrain("MLM", data, config)
f_enc, _ = restore_text_encoder(fresh.final)
f_act = f_enc.encode(probe)
print(f"mmd^2(teacher, student)  = {nst_loss(t_act, s_act):.6f}")
print(f"mmd^2(teacher, mlm-only) = {nst_loss(t_act, f_act):.6f}\n")

print("=== 4. zero transfer weight replays the mlm-only run exactly ===")
replay = distill(
    teacher.final, data, DistillSpec(mlm_weight=1.0, nst_weight=0.0), config
)
matches = all(
    a["total"] == b["total"] for a, b in zip(replay.loss_rows, fresh.loss_rows)
)
print(f"step-for-step loss match: {matches}")
