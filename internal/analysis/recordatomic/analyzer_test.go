package recordatomic_test

import (
	"testing"

	"nbr/internal/analysis/atest"
	"nbr/internal/analysis/recordatomic"
)

func TestRecordsCorpus(t *testing.T) {
	atest.Run(t, "testdata/src/records", recordatomic.Analyzer)
}
