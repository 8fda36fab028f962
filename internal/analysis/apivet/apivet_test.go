package apivet_test

import (
	"testing"

	"countnet/internal/analysis/antest"
	"countnet/internal/analysis/apivet"
)

func TestApivet(t *testing.T) {
	antest.Run(t, "../testdata/src/apivet", apivet.Analyzer)
}
