package catalog

import "fmt"

// This file reads the paper's Table 1 (applicability of SMR algorithms) off
// the structure table, in two layers:
//
//   - the *theoretical* verdicts of Table 1 itself, printed by cmd/nbrtable1
//     and asserted by tests;
//   - the *runnable* matrix, which additionally admits the combinations the
//     paper's own benchmark runs despite a "No" in Table 1 (HP on the lazy
//     list and on DGT, using the benchmark-style link re-read validation at
//     the documented cost of the structures' progress guarantees).

// Verdict is one Table 1 cell.
type Verdict struct {
	OK   bool
	Note string
}

// family maps a concrete scheme name onto its Table 1 column ("" for a name
// the catalog does not have). Scheme families follow the paper's columns: NBR
// covers nbr and nbr+; EBR covers qsbr, rcu and debra; HP covers hp, ibr and
// he (the paper groups HP/IBR/HE/… in one column because their integration
// requirements coincide).
func family(scheme string) string {
	switch scheme {
	case "nbr", "nbr+":
		return "NBR"
	case "qsbr", "rcu", "debra", "none":
		return "EBR" // none trivially applies everywhere; grouped for lookup
	case "hp", "ibr", "he":
		return "HP"
	}
	return ""
}

// CheckScheme returns nil for a scheme name NewScheme can build.
func CheckScheme(name string) error {
	if family(name) == "" {
		return fmt.Errorf("unknown scheme %q (have %v)", name, SchemeNames)
	}
	return nil
}

// verdict is the structure's Table 1 cell under a scheme; false for a scheme
// name the catalog does not have.
func (s *structure) verdict(scheme string) (Verdict, bool) {
	switch family(scheme) {
	case "NBR":
		return s.nbr, true
	case "HP":
		return s.hp, true
	case "EBR":
		if scheme == "none" {
			return Verdict{true, "leaky baseline applies everywhere"}, true
		}
		return Verdict{OK: true}, true
	}
	return Verdict{}, false
}

// Table1Verdict returns the paper's theoretical applicability verdict.
func Table1Verdict(dsName, scheme string) (Verdict, bool) {
	s, err := lookup(dsName)
	if err != nil {
		return Verdict{}, false
	}
	return s.verdict(scheme)
}

// Check returns nil when the harness will execute the combination — the
// Table 1 verdict plus the paper's own benchmark exceptions — and otherwise
// says which of two different things is wrong: a name the catalog does not
// have, or a combination Table 1 rejects.
func Check(dsName, scheme string) error {
	s, err := lookup(dsName)
	if err != nil {
		return err
	}
	v, ok := s.verdict(scheme)
	if !ok {
		return CheckScheme(scheme)
	}
	if !v.OK && !(s.hpBench && family(scheme) == "HP") {
		return fmt.Errorf("%s is not runnable under %s (the paper's Table 1)", dsName, scheme)
	}
	return nil
}

// Runnable reports whether Check passes.
func Runnable(dsName, scheme string) bool { return Check(dsName, scheme) == nil }
