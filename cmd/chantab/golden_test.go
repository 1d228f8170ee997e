package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// artifactGoldens pins the bytes of every -quick artifact: the SHA-256
// of its stdout under its -only name, and of each file it writes under
// "name/file" (the -csv file is out.csv, -svgdir files keep their names).
// The hashes were taken before the experiments package was rebuilt on
// one sweep, so they certify that the evaluation still does the same
// runs and writes the same bytes.
var artifactGoldens = map[string]string{
	"a1":                    "ebb3795eed05552924ba9c1091f6a4b694002bb71c6a34694a1a76ed1266e433",
	"f1":                    "bbd3b153c90014c2c3243ae9947bd38f5ca5c3921ca05686eb527e1252720404",
	"f1/f1-blocking.svg":    "eec0c1f3bd95f75a0b436872ce7ed2be963dadeb04050cd483e906b17f4fd17e",
	"f1/f2-delay.svg":       "c365cb6f01acabea136db054b3c9c21fac788194e7a2be602b05bc2171d33649",
	"f1/f3-messages.svg":    "2e98685948ce787487b8ed8073c84366d81b6a0daa16b75644326133921f2f23",
	"f1/f7-modes.svg":       "8c0bff6f3a8e5249b09a458cfdf3a2d592a6f4d0982c320d1f12c7f0a226b719",
	"f1/out.csv":            "eef60388468c55f81895872d9c8db8efb652f8b9884a0058adb9160df7ca1f6b",
	"f10":                   "238a47c2dc6e82e4afd6aa89d58ab57117c5ff489608c4f2395781263816fb95",
	"f11":                   "d98b02c2dee057c0d8c40da6715d604f90c361fa2387847c1ed0fea63b34302d",
	"f11/f11-latency.svg":   "6edfea39364462087d90e5feb57eeb9fe507689685391c9ae9850934a2778cc0",
	"f12":                   "af9cc6a381f69d8c597ca3478156ab51e7ed424e3242d555997e69c3f1081b4b",
	"f12/f12-repacking.svg": "89ab46adcdff4c8780d615b7febba2f1bf2ecfa18190a58ae3f5c7196637dd30",
	"f4":                    "d5dd5f7192813a047c04ede199bf2f82023cef4fe44af87c55aae8b866afa293",
	"f4/f4-hotspot.svg":     "07650bb7677523912e46b92c545b192ef20e467ec0b6bcdec78bb283a698b5f0",
	"f5":                    "319ebb4838174d0d76ffbd6a570c44153dd5e09b48f5aeacd65b9aa8b65d6206",
	"f5d":                   "f9455852da6ebb010c40c836d64590d5a65bbeea191d6d2b2d768a340aa137f9",
	"f6":                    "1bbbae30481225bea12fe9b9243a58e070b4c87adfa55b5904a1fa7cbddbbb47",
	"f8":                    "c50bc0404c69ce87ba4c904c7ce5ffe1478ba1844733482ceaaa5aa8bee6eb0d",
	"f9":                    "2713298ea743d6658a243e967c409d5a49d3adad9cdc50f47dcc6371f203d69d",
	"f9/f9-mobility.svg":    "bcf9c25f1d903800b214ae503dfa46510d2135443e20ede173f2a35eac6a696e",
	"policies":              "d8c3b92bf9e96f5b7212af6aac87be542d85513dbc355f89f71ae528a54cc224",
	"policies/out.csv":      "a734a1d1df67d41c263d8472c0a7dc9176048bf6de1c19bbd7926c376cc040af",
	"table1":                "d5b414cbd18327f4920eec441afa5dbd605a6bad86b1e9328a626babceb0722a",
	"table2":                "1cc69c41b2900567d6c8022ad6c11c72637ec0962fa7d45e1dd369bb27431731",
	"table3":                "7d44503471e27c4b47aea2731df702f7d9e484fab3df12d0ce1dd140fab1223b",
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// artifactNames reads the -only names off the usage error an unknown
// name prints, so an artifact added without a golden fails the test.
func artifactNames(t *testing.T) []string {
	t.Helper()
	_, _, stderr := chantab("-only", "?")
	_, list, ok := strings.Cut(strings.TrimSpace(stderr), "; have ")
	if !ok {
		t.Fatalf("no artifact list in %q", stderr)
	}
	return strings.Split(list, ", ")
}

// TestArtifactGoldens renders each artifact alone with -quick, -csv and
// -svgdir and compares every byte it wrote with the pinned hashes.
func TestArtifactGoldens(t *testing.T) {
	got := map[string]string{}
	for _, name := range artifactNames(t) {
		dir := t.TempDir()
		code, stdout, stderr := chantab("-quick", "-only", name, "-csv", filepath.Join(dir, "out.csv"), "-svgdir", dir)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", name, code, stderr)
		}
		got[name] = sha([]byte(stdout))
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/"+f.Name()] = sha(b)
		}
	}
	keys := make([]string, 0, len(got)+len(artifactGoldens))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range artifactGoldens {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != artifactGoldens[k] {
			t.Errorf("%s: sha256 %q, pinned %q", k, got[k], artifactGoldens[k])
		}
	}
}
