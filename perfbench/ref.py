"""Reference program: a fixed amount of work of the kind the CLI does.

`run.py` has it run as its own process just before every CLI process and
divides each CLI time by the reference time before it, so that a change in
the shared host's speed cancels out of the reported times (see `run.py`,
"Host-speed scaling").

It starts an interpreter, imports numpy and yaml as the CLI does, then does
three fixed pieces of work shaped like the CLI's: YAML parsing of a table
(`scenario`), rank-one updates of a 1 MiB tableau, the size of the n = 8
core LP's (`lp`), and a pure-Python loop over small dicts (`learning`,
`matching`). It uses nothing from the repository,
so no change to the program can change its time.
"""

import numpy as np
import yaml


def main():
    table = {"payoffs": [{"profile": [f"a{i % 7}", f"b{i % 5}"],
                          "values": [i * 0.25, -i * 0.5]} for i in range(120)]}
    yaml.safe_load(yaml.safe_dump(table))

    rng = np.random.default_rng(12345)
    tab = rng.random((256, 512))
    for _ in range(150):
        r = int(np.argmax(tab[:, 0]))
        c = 1 + int(np.argmin(tab[r, 1:]))
        tab -= 1e-3 * np.outer(tab[:, c], tab[r])
        np.abs(tab, out=tab)

    acc, seen = 0, {}
    for i in range(120000):
        acc = (acc * 31 + i) % 1000003
        if i % 7 == 0:
            seen[i % 997] = acc
    return acc + len(seen)


if __name__ == "__main__":
    main()
