"""Ablation variants of CADRL used by Table IV and Figures 3-4.

Every variant is the full model with the relevant switches flipped, written as
``section__field`` config overrides (see :func:`repro.darl.apply_overrides`),
so the ablations train through the same pipeline stages as the full model —
exactly how the paper constructs them:

* ``CADRL w/o DARL``  — single entity agent, binary terminal reward only
                        (Table IV).
* ``CADRL w/o CGGNN`` — static TransE representations (Table IV).
* ``RGGNN``           — CGGNN without the gated GNN module (Fig. 3).
* ``RCGAN``           — CGGNN without the category attention module (Fig. 3).
* ``RSHI``            — no shared history between the agents (Fig. 4).
* ``RCRM``            — no collaborative reward mechanism (Fig. 4).
"""

from __future__ import annotations

from typing import Any, Dict

VARIANT_OVERRIDES: Dict[str, Dict[str, Any]] = {
    "CADRL": {},
    "CADRL w/o DARL": {"darl__use_dual_agent": False,
                       "darl__use_collaborative_rewards": False},
    "CADRL w/o CGGNN": {"use_cggnn": False},
    "RGGNN": {"cggnn__use_ggnn": False},
    "RCGAN": {"cggnn__use_category_attention": False},
    "RSHI": {"darl__share_history": False},
    "RCRM": {"darl__use_collaborative_rewards": False},
}
