package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMembershipListNormalizes checks member URLs canonicalize to the form
// the coordinator's backend clients use (http scheme, no trailing slash).
func TestMembershipListNormalizes(t *testing.T) {
	members, err := membershipList("host1:8081, http://host2:8082/", "")
	if err != nil {
		t.Fatalf("membershipList: %v", err)
	}
	want := []string{"http://host1:8081", "http://host2:8082"}
	if len(members) != len(want) {
		t.Fatalf("members = %v, want %v", members, want)
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("members[%d] = %q, want %q", i, members[i], want[i])
		}
	}
}

// TestMembershipListRejectsDuplicates drives the duplicate-member refusal:
// the same daemon spelled two ways in -backends, and a -membership file
// repeating a -backends entry. A duplicate would become a second backend
// index with identical ring vnode hashes.
func TestMembershipListRejectsDuplicates(t *testing.T) {
	if _, err := membershipList("host1:8081,http://host1:8081/", ""); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("same daemon spelled two ways: err = %v, want duplicate error", err)
	}

	file := filepath.Join(t.TempDir(), "members.txt")
	if err := os.WriteFile(file, []byte("# members\nhost1:8081\n"), 0o644); err != nil {
		t.Fatalf("writing membership file: %v", err)
	}
	if _, err := membershipList("http://host1:8081", file); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("-backends repeated in -membership: err = %v, want duplicate error", err)
	}
}

// TestCheckModeFlagsRejectsOtherMode checks a flag that applies to one mode
// only is refused in the other instead of being silently ignored, while
// flags of the chosen mode and flags of both modes pass.
func TestCheckModeFlagsRejectsOtherMode(t *testing.T) {
	cases := []struct {
		args        []string
		coordinator bool
		wantErr     string
	}{
		{[]string{"-workers", "2", "-queue-depth", "8"}, false, ""},
		{[]string{"-backends", "h:1", "-cache", "16"}, true, ""},
		{[]string{"-workers", "2"}, true, "-workers does not apply with -coordinator"},
		{[]string{"-backends", "h:1"}, false, "-backends applies only with -coordinator"},
		{[]string{"-membership", "m.txt"}, false, "-membership applies only with -coordinator"},
		{[]string{"-probe-interval", "2s"}, false, "-probe-interval applies only with -coordinator"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("fleasimd", flag.ContinueOnError)
		for _, name := range []string{"workers", "queue-depth", "cache", "backends", "membership", "probe-interval"} {
			fs.String(name, "", "")
		}
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		err := checkModeFlags(fs.Visit, c.coordinator)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%v (coordinator=%v): err = %v, want none", c.args, c.coordinator, err)
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
			t.Errorf("%v (coordinator=%v): err = %v, want %q", c.args, c.coordinator, err, c.wantErr)
		}
	}
}
