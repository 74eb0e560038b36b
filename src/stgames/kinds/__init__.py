"""One module per scenario kind, each imported on its kind's first use.

`stgames.kinds.<kind>` defines `validate(node, path)`, which checks the
kind's block and returns it normalized together with the runner's keyword
inputs, and `run(cfg, **inputs)`, which calls the kernels and shapes the
RunRecord. `_game` holds the game and learner sub-schema that the five game
kinds (`nash`, `learn`, `ttscale`, `stackelberg`, `incentive`) share. A
process compiles only the modules of the kind it runs.
"""
