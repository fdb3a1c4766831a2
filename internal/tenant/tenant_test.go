package tenant

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseTenantsFile(t *testing.T) {
	src := `
# comment line
alice  token=sesame rate=50 burst=100 concurrent=8
mon    key=6162636465666768 rate=5 concurrent=2 priority=bulk   # monitors
bare   token=justatoken
both   token=t2 key=00ff
`
	s, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Len() != 4 {
		t.Fatalf("got %d tenants, want 4", s.Len())
	}
	alice := s.Lookup("alice")
	if alice == nil || alice.Token != "sesame" || alice.Rate != 50 ||
		alice.Burst != 100 || alice.MaxConcurrent != 8 || alice.Bulk {
		t.Fatalf("alice parsed wrong: %+v", alice)
	}
	mon := s.Lookup("mon")
	if mon == nil || string(mon.Key) != "abcdefgh" || !mon.Bulk || mon.MaxConcurrent != 2 {
		t.Fatalf("mon parsed wrong: %+v", mon)
	}
	if mon.Burst != 5 {
		t.Fatalf("mon burst should default to ceil(rate)=5, got %d", mon.Burst)
	}
	if bare := s.Lookup("bare"); bare == nil || bare.Rate != 0 || bare.Burst != 0 {
		t.Fatalf("bare should have unlimited quotas: %+v", s.Lookup("bare"))
	}
}

func TestParseRejectsBadFiles(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"no credential", "alice rate=5", "token= or key="},
		{"dup name", "a token=x\na token=y", "duplicate name"},
		{"dup token", "a token=x\nb token=x", "already in use"},
		{"bad option", "a token=x color=red", "unknown option"},
		{"bad rate", "a token=x rate=fast", "rate"},
		{"negative rate", "a token=x rate=-1", "negative rate"},
		{"bad priority", "a token=x priority=vip", "unknown priority"},
		{"bad key hex", "a key=zz", "key"},
		{"bare option", "a token", "not key=value"},
		{"dotted name", "a.b token=x", "invalid name"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(c.src))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Parse(%q) err = %v, want substring %q", c.src, err, c.want)
			}
		})
	}
}

func TestAuthenticate(t *testing.T) {
	key := []byte("super-secret-hmac-key")
	s, err := NewSet(
		&Tenant{Name: "alice", Token: "sesame"},
		&Tenant{Name: "svc", Key: key},
	)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	now := time.Unix(1_700_000_000, 0)
	good := Mint("svc", key, now.Add(time.Hour))
	expired := Mint("svc", key, now.Add(-time.Minute))
	forged := Mint("svc", []byte("wrong-key"), now.Add(time.Hour))
	wrongName := Mint("ghost", key, now.Add(time.Hour))

	cases := []struct {
		name   string
		header string
		tenant string // expected tenant name, "" = error expected
		err    error  // expected sentinel when tenant == ""
	}{
		{"static bare", "sesame", "alice", nil},
		{"static bearer", "Bearer sesame", "alice", nil},
		{"scheme case-insensitive", "bearer sesame", "alice", nil},
		{"minted ok", "Bearer " + good, "svc", nil},
		{"minted bare", good, "svc", nil},
		{"empty", "", "", ErrNoToken},
		{"blank bearer", "Bearer   ", "", ErrNoToken},
		{"unknown static", "open-sesame", "", ErrUnknownToken},
		{"minted expired", expired, "", ErrExpired},
		{"minted forged", forged, "", ErrBadSignature},
		{"minted unknown tenant", wrongName, "", ErrUnknownToken},
		{"minted truncated", good[:len(good)-10], "", ErrBadSignature},
		{"minted malformed", "wsda1.svc.notanumber", "", ErrUnknownToken},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := s.Authenticate(c.header, now)
			if c.tenant == "" {
				if !errors.Is(err, c.err) {
					t.Fatalf("Authenticate(%q) err = %v, want %v", c.header, err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Authenticate(%q): %v", c.header, err)
			}
			if got.Name != c.tenant {
				t.Fatalf("Authenticate(%q) = %s, want %s", c.header, got.Name, c.tenant)
			}
		})
	}
}

func TestMintedTokenTamperedExpiry(t *testing.T) {
	key := []byte("k")
	s, _ := NewSet(&Tenant{Name: "svc", Key: key})
	now := time.Unix(1_700_000_000, 0)
	tok := Mint("svc", key, now.Add(-time.Minute))
	// Stretch the expiry without re-signing: signature must fail before
	// the verifier even looks at the new expiry.
	parts := strings.Split(tok, ".")
	parts[2] = "9999999999"
	if _, err := s.Authenticate(strings.Join(parts, "."), now); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered expiry err = %v, want ErrBadSignature", err)
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]Class{
		"/wsda/publish":       ClassControl,
		"/wsda/unpublish":     ClassControl,
		"/wsda/shard":         ClassControl,
		"/wsda/shard/cutover": ClassControl,
		"/router/cutover":     ClassControl,
		"/wsda/xquery":        ClassQuery,
		"/netquery":           ClassQuery,
		"/wsda/minquery":      ClassBrowse,
		"/wsda/presenter":     ClassBrowse,
		"/wsda/feed":          ClassBrowse,
		"/wsda/snapshot":      ClassBrowse,
		"/debug/slowlog":      ClassBrowse,
	}
	for path, want := range cases {
		if got := Classify(path); got != want {
			t.Errorf("Classify(%s) = %s, want %s", path, got, want)
		}
	}
}

func TestBucketRefillAndRetryAfter(t *testing.T) {
	var b bucket
	b.reset(2)
	now := time.Unix(0, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(1, 2, now); !ok {
			t.Fatalf("take %d refused inside burst", i)
		}
	}
	ok, retry := b.take(1, 2, now)
	if ok {
		t.Fatal("take succeeded on empty bucket")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry = %v, want (0, 1s]", retry)
	}
	// Half a second refills half a token at rate 1: still refused.
	if ok, _ = b.take(1, 2, now.Add(500*time.Millisecond)); ok {
		t.Fatal("take succeeded after half a refill")
	}
	// A full second refills the whole token.
	if ok, _ = b.take(1, 2, now.Add(1600*time.Millisecond)); !ok {
		t.Fatal("take refused after full refill")
	}
	// The bucket never overflows the burst.
	if got := b.peek(1, 2, now.Add(time.Hour)); got != 2 {
		t.Fatalf("peek after long idle = %v, want burst cap 2", got)
	}
}

func TestAdmissionLadder(t *testing.T) {
	a := newAdmission(10) // browse limit 5, query 9, control 10
	var held int
	for a.tryAcquire(ClassBrowse) {
		held++
	}
	if held != 5 {
		t.Fatalf("browse filled %d slots, want 5", held)
	}
	for a.tryAcquire(ClassQuery) {
		held++
	}
	if held != 9 {
		t.Fatalf("browse+query filled %d slots, want 9", held)
	}
	if !a.tryAcquire(ClassControl) {
		t.Fatal("control refused with a free slot")
	}
	held++
	if a.tryAcquire(ClassControl) {
		t.Fatal("control admitted past capacity")
	}
	a.release()
	held--
	if a.tryAcquire(ClassBrowse) {
		t.Fatal("browse admitted while gate above its tier")
	}
	if !a.tryAcquire(ClassControl) {
		t.Fatal("control refused the freed slot")
	}
	for i := 0; i < held; i++ {
		a.release()
	}
}

// FuzzAuthenticate checks token verification on an injected clock against
// arbitrary Authorization headers: it never panics, a tenant is returned
// only for its own static token or for a minted token whose signature its
// key makes and whose expiry is still ahead, and a signature failure or an
// expiry is never reported for a token that verifies.
func FuzzAuthenticate(f *testing.F) {
	now := time.Unix(1_700_000_000, 0)
	s, err := Parse(strings.NewReader("static token=sesame\nminted key=6162636465666768\nboth token=t2 key=00ff\n"))
	if err != nil {
		f.Fatal(err)
	}
	key := []byte("abcdefgh")
	for _, seed := range []string{
		"Bearer sesame", "bearer\tt2", "sesame", "", "Bearer ", "BEARER  " + Mint("minted", key, now.Add(time.Hour)),
		Mint("minted", key, now.Add(time.Hour)), Mint("minted", key, now.Add(-time.Hour)), Mint("minted", key, now),
		Mint("static", key, now.Add(time.Hour)), Mint("both", []byte{0, 0xff}, now.Add(time.Minute)),
		"wsda1.minted.x.y", "wsda1.minted." + "99999999999999999999.sig", "wsda1..1.", "wsda1.minted.1.2.3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, authorization string) {
		tn, err := s.Authenticate(authorization, now)
		tok := strings.TrimSpace(authorization)
		if rest, ok := cutPrefixFold(tok, "bearer"); ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			tok = strings.TrimSpace(rest)
		}
		parts := strings.Split(tok, ".")
		signed := func(t *Tenant) bool {
			return len(parts) == 4 && len(t.Key) > 0 && parts[3] == signPayload(t.Key, tok[:len(tok)-len(parts[3])-1])
		}
		switch {
		case err == nil && tn.Token != tok:
			exp, perr := strconv.ParseInt(parts[min(2, len(parts)-1)], 10, 64)
			if !strings.HasPrefix(tok, mintPrefix+".") || !signed(tn) || parts[1] != tn.Name || perr != nil || now.Unix() >= exp {
				t.Fatalf("%q authenticated as %s", authorization, tn.Name)
			}
		case errors.Is(err, ErrBadSignature):
			if tn := s.Lookup(parts[1]); tn == nil || signed(tn) {
				t.Fatalf("%q: bad signature reported for a token %v signs", authorization, tn)
			}
		case errors.Is(err, ErrExpired):
			if tn := s.Lookup(parts[1]); tn == nil || !signed(tn) {
				t.Fatalf("%q: expiry reported for a token no key signs", authorization)
			}
		}
	})
}
