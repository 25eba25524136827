package store

import (
	"testing"

	"dimm/internal/offheaptest"
)

func TestMain(m *testing.M) { offheaptest.Main(m) }
