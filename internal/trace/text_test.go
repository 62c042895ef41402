package trace

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// readText decodes the text trace form into a slice.
func readText(r io.Reader) ([]Access, error) { return Collect(NewTextReader(r)) }

// textLines formats accs in the text trace form, one `id pc addr chain`
// line each.
func textLines(accs []Access) string {
	var b strings.Builder
	for _, a := range accs {
		fmt.Fprintf(&b, "%d 0x%x 0x%x %d\n", a.ID, a.PC, a.Addr, a.Chain)
	}
	return b.String()
}

func TestTextRoundTrip(t *testing.T) {
	accs := []Access{
		{ID: 1, PC: 0x400100, Addr: 0x7f0000001000, Chain: 0},
		{ID: 1, PC: 0x400108, Addr: 0x7f0000001040, Chain: 2},
		{ID: 37, PC: 0x400200, Addr: PageBytes},
	}
	got, err := readText(strings.NewReader(textLines(accs)))
	if err != nil {
		t.Fatalf("readText: %v", err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, accs)
	}
}

func TestReadTextFlexibleInput(t *testing.T) {
	in := `
# leading comment
1 0x400100 4096       # trailing comment
2, 0x400108, 8192, 1  # comma separated, with chain
	3	4195592	12288     # tabs, decimal pc
`
	got, err := readText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("readText: %v", err)
	}
	want := []Access{
		{ID: 1, PC: 0x400100, Addr: 4096},
		{ID: 2, PC: 0x400108, Addr: 8192, Chain: 1},
		{ID: 3, PC: 4195592, Addr: 12288},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestReadTextRejects is the satellite's core contract: NaN, Inf, floats,
// negatives, and out-of-range fields are rejected with a positioned
// `record N:` error, where N counts records (not raw lines).
func TestReadTextRejects(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"NaN addr", "1 0x400100 NaN", "record 0: addr is NaN"},
		{"nan lowercase", "1 0x400100 4096\n2 nan 8192", "record 1: pc is NaN"},
		{"Inf", "1 0x400100 Inf", "record 0: addr is Inf"},
		{"negative inf", "1 -Inf 4096", "record 0: pc is -Inf"},
		{"infinity", "1 0x400100 +Infinity", "record 0: addr is +Infinity"},
		{"float", "1 0x400100 40.96", `record 0: addr "40.96" is not an unsigned integer`},
		{"exponent float", "1 1e9 4096", `record 0: pc "1e9" is not an unsigned integer`},
		{"negative", "1 0x400100 -4096", `record 0: addr "-4096" is not an unsigned integer`},
		{"garbage", "1 0x400100 hello", `record 0: bad addr "hello"`},
		{"addr out of range", "1 0x400100 0x1000000000000", "record 0: addr 0x1000000000000 out of range"},
		{"pc out of range", "1 0x1000000000000 4096", "record 0: pc"},
		{"chain overflow", "1 0x400100 4096 0x100000000", "record 0: chain"},
		{"too few fields", "1 4096", "record 0: 2 fields"},
		{"too many fields", "1 2 3 4 5", "record 0: 5 fields"},
		{"decreasing ids", "5 1 4096\n3 1 8192", "record 1: id 3 < previous id 5"},
		{"positioned past comments", "# c\n\n1 2 4096\n# c\n2 3 bad", "record 1: bad addr"},
	}
	for _, tc := range cases {
		_, err := readText(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: readText accepted %q", tc.name, tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestReadTextEmpty(t *testing.T) {
	got, err := readText(strings.NewReader("# only comments\n\n"))
	if err != nil {
		t.Fatalf("readText: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records, want 0", len(got))
	}
}
