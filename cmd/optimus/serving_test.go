package main

import (
	"testing"

	"optimus/internal/serve"
)

// servingFlagErrors is the one flag-rejection table of the shared serve /
// cluster front end: every row is a single fault, and the error must be
// exactly the message that names the offending CLI flag (not a library
// field such as "PageTokens"). only restricts a row to the command that
// has the flag; an empty only runs the row against both.
var servingFlagErrors = []struct {
	args []string
	only string
	want string
}{
	{[]string{"-page-tokens", "16"}, "", "-page-tokens applies to the paged and disagg policies only (-policy reserve-full ignores it)"},
	{[]string{"-no-preempt"}, "", "-no-preempt applies to the paged policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "disagg", "-no-preempt"}, "", "-no-preempt applies to the paged policy only (-policy disagg ignores it)"},
	{[]string{"-prefill-devices", "1"}, "", "-prefill-devices applies to the disagg policy only (-policy reserve-full ignores it)"},
	{[]string{"-decode-devices", "1"}, "", "-decode-devices applies to the disagg policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "paged", "-decode-devices", "1"}, "", "-decode-devices applies to the disagg policy only (-policy paged ignores it)"},
	{[]string{"-transfer-gbps", "50"}, "", "-transfer-gbps applies to the disagg policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "paged", "-transfer-gbps", "50"}, "", "-transfer-gbps applies to the disagg policy only (-policy paged ignores it)"},
	{[]string{"-prefix", "64"}, "", "-prefix applies to the paged policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "disagg", "-prefix", "64"}, "", "-prefix applies to the paged policy only (-policy disagg ignores it)"},
	{[]string{"-kv-host-gb", "4"}, "", "-kv-host-gb applies to the paged policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "disagg", "-kv-host-gb", "4"}, "", "-kv-host-gb applies to the paged policy only (-policy disagg ignores it)"},
	{[]string{"-swap-gbps", "32"}, "", "-swap-gbps applies to the paged policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "paged", "-swap-gbps", "32"}, "", "-swap-gbps prices the host KV tier's swap link (set -kv-host-gb)"},
	{[]string{"-policy", "paged", "-no-preempt", "-prefix", "64"}, "", "-prefix needs preemption (-no-preempt reserves full context and never evicts)"},
	{[]string{"-policy", "paged", "-no-preempt", "-kv-host-gb", "4"}, "", "-kv-host-gb needs preemption (-no-preempt reserves full context and never evicts)"},
	{[]string{"-policy", "paged", "-prefix", "64", "-mix", "a:1:100:50"}, "", "-prefix describes the single-tenant workload (use the per-tenant prefix field in -mix, or the trace's prefix columns)"},
	{[]string{"-schedule", "0-10:2", "-rate", "3"}, "", "-schedule fixes the arrival-rate timeline (-rate sets the constant Poisson rate; set one)"},
	{[]string{"-trace", "x.csv", "-schedule", "0-10:2"}, "", "-schedule does not apply when replaying a trace (-trace fixes the arrival process)"},
	{[]string{"-trace", "x.csv", "-turns", "3"}, "", "-turns does not apply when replaying a trace (-trace fixes the arrival process)"},
	{[]string{"-trace", "x.csv", "-think", "1"}, "", "-think does not apply when replaying a trace (-trace fixes the arrival process)"},
	{[]string{"-turns", "3"}, "", "-turns applies to the paged policy only (-policy reserve-full ignores it)"},
	{[]string{"-policy", "disagg", "-turns", "3"}, "", "-turns applies to the paged policy only (-policy disagg ignores it)"},
	{[]string{"-policy", "paged", "-no-preempt", "-turns", "3"}, "", "-turns needs preemption (-no-preempt reserves full context and never evicts)"},
	{[]string{"-think", "1"}, "", "-think is the pause between session turns (set -turns above 1)"},
	{[]string{"-policy", "paged", "-turns", "1", "-think", "1"}, "", "-think is the pause between session turns (set -turns above 1)"},
	{[]string{"-policy", "paged", "-kv-host-gb", "0", "-swap-gbps", "32"}, "", "-swap-gbps prices the host KV tier's swap link (set -kv-host-gb)"},
	{[]string{"-gpus", "0"}, "", "-gpus must be at least 1, got 0"},
	{[]string{"-gpus", "-2"}, "", "-gpus must be at least 1, got -2"},
	{[]string{"-arrival", "closed", "-schedule", "0-10:2"}, "serve", "-schedule applies to open-loop Poisson arrivals only (-arrival poisson)"},
	{[]string{"-arrival", "closed", "-turns", "3"}, "serve", "-turns applies to open-loop Poisson arrivals only (-arrival poisson)"},
	{[]string{"-arrival", "closed", "-think", "1"}, "serve", "-think applies to open-loop Poisson arrivals only (-arrival poisson)"},
	{[]string{"-replicas", "0"}, "cluster", "-replicas must be at least 1, got 0"},
	{[]string{"-rate", "2", "-slo-e2e-p95", "5"}, "cluster", "-rate does not apply to the saturation analysis (-slo-e2e-p95 bisects the rate)"},
	{[]string{"-min-rate", "1"}, "cluster", "-min-rate and -max-rate bracket the saturation analysis (set -slo-e2e-p95)"},
	{[]string{"-knee-probes", "3"}, "cluster", "-knee-probes budgets the saturation analysis (set -slo-e2e-p95)"},
	{[]string{"-schedule", "0-10:2", "-slo-e2e-p95", "5"}, "cluster", "-schedule does not apply to the saturation analysis (-slo-e2e-p95 bisects a constant rate)"},
}

// checkServingFlagErrors runs every servingFlagErrors row that applies to
// the named command.
func checkServingFlagErrors(t *testing.T, name string, cmd func([]string) error) {
	t.Helper()
	for _, tc := range servingFlagErrors {
		if tc.only != "" && tc.only != name {
			continue
		}
		if err := cmd(tc.args); err == nil || err.Error() != tc.want {
			t.Errorf("%s %v: error = %v, want %q", name, tc.args, err, tc.want)
		}
	}
}

// TestCmdServeFlagErrorsNameFlags and TestCmdClusterFlagErrorsNameFlags pin
// the rejection parity of the two commands: both run the one table.
func TestCmdServeFlagErrorsNameFlags(t *testing.T) {
	checkServingFlagErrors(t, "serve", cmdServe)
}

func TestCmdClusterFlagErrorsNameFlags(t *testing.T) {
	checkServingFlagErrors(t, "cluster", cmdCluster)
}

// TestKnobFlagsNameEveryKnob ties the CLI's flag→knob map to serve's knob
// table: every knob has a flag that names it in errors, so a knob added to
// the table cannot reach the CLI unnamed.
func TestKnobFlagsNameEveryKnob(t *testing.T) {
	for k := serve.Knob(0); k < serve.NumKnobs; k++ {
		named := false
		for _, kf := range knobFlags {
			named = named || kf.knob == k
		}
		if !named {
			t.Errorf("knob %d has no flag in knobFlags", k)
		}
	}
}
