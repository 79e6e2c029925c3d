package ipa

import (
	"reflect"
	"testing"

	"ipa/internal/buffer"
	"ipa/internal/client"
	"ipa/internal/engine"
	"ipa/internal/flash"
	"ipa/internal/noftl"
	"ipa/internal/repl"
	"ipa/internal/server"
)

// TestKnobBudget pins the field count of every options struct a program
// builds a stack with to the counts in DESIGN.md "Options: who sets
// what". A new knob changes this test and that table together, with a
// line saying which program needs it.
func TestKnobBudget(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want int
	}{
		{reflect.TypeOf(engine.Options{}), 11},
		{reflect.TypeOf(engine.Spec{}), 3},
		{reflect.TypeOf(noftl.RegionConfig{}), 6},
		{reflect.TypeOf(flash.Config{}), 8},
		{reflect.TypeOf(buffer.Config{}), 5},
		{reflect.TypeOf(repl.Config{}), 8},
		{reflect.TypeOf(server.Config{}), 7},
		{reflect.TypeOf(client.Options{}), 3},
	} {
		if got := c.typ.NumField(); got != c.want {
			t.Errorf("%v has %d fields, DESIGN.md says %d", c.typ, got, c.want)
		}
	}
}
