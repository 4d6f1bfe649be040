"""Ration one unit of supply among agents with random demands.

Solves the largest uniform service level the supply can promise, executes the
allocation exactly, and cross-checks each agent's expected service and
expected allocation against a Monte Carlo run.
"""

from fbcrs import (
    DemandLaw,
    RationingInstance,
    exante_check,
    max_uniform_beta,
    run_rationing,
)


def main():
    inst = RationingInstance(
        (
            DemandLaw(((0.5, 0.5), (2.0, 0.5))),
            DemandLaw(((1.0, 1.0),)),
            DemandLaw(((0.2, 0.3), (0.6, 0.4), (1.5, 0.3))),
        ),
        ("TypeIII", "TypeII", "TypeII"),
    )
    beta = 0.95 * max_uniform_beta(inst)
    target = exante_check(inst, (beta,) * inst.n)
    print(f"uniform service level beta = {beta:.4f}, "
          f"total supply share {target.total_supply:.4f}")

    exact = run_rationing(inst, target, mode="exact")
    print(f"\nroute: {exact.route}, plan guarantee {exact.plan.objective:.4f}")
    print(f"{'agent':>6} {'q':>8} {'x':>8} {'E[service]':>11} {'bound':>8} {'slack':>9}")
    for a in exact.agents:
        print(f"{a.index + 1:>6} {a.q:>8.4f} {a.x:>8.4f} "
              f"{a.expected_service:>11.6f} {a.bound:>8.4f} {a.slack:>9.2e}")

    mc = run_rationing(inst, target, mode="mc", trials=200_000, seed=11)
    print("\nMonte Carlo cross-check at 200k trials:")
    for ex, sampled in zip(exact.agents, mc.agents):
        half = (sampled.service_high - sampled.service_low) / 2.0
        print(f"  agent {ex.index + 1}: exact {ex.expected_service:.5f}, "
              f"sampled {sampled.expected_service:.5f} +- {half:.5f}")

    print("\nexpected allocation, exact against Monte Carlo:")
    for ex, sampled in zip(exact.agents, mc.agents):
        print(f"  agent {ex.index + 1}: exact {ex.expected_alloc:.5f}, "
              f"sampled {sampled.expected_alloc:.5f}")


if __name__ == "__main__":
    main()
