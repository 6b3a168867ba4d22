package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	names := []string{"Crypt", "LUFact", "SOR"}

	all, err := parseOnly("", names)
	if err != nil || len(all) != 0 {
		t.Fatalf("empty filter = %v, %v; want no filter", all, err)
	}

	got, err := parseOnly(" lufact ,SOR,", names)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got["lufact"] || !got["sor"] {
		t.Fatalf("filter = %v, want lufact and sor", got)
	}

	_, err = parseOnly("lufact,nosuch", names)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, want := range []string{`"nosuch"`, "crypt, lufact, sor"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}
