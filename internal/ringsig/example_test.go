package ringsig_test

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"log"

	"pvr/internal/ringsig"
)

// ExampleRing is the link-state variant of §3.2 (last paragraph): when
// the protocol only needs to export *whether a path exists*, the
// providers can sign the statement "a route exists" with a ring
// signature. The recipient B verifies that SOME member of {N1..N4}
// signed — but cannot tell which one, so PVR reveals strictly less than
// a conventional signature would.
func ExampleRing() {
	// Four providers generate RSA keys (their routing identities).
	const members = 4
	keys := make([]*rsa.PrivateKey, members)
	pubs := make([]*rsa.PublicKey, members)
	for i := range keys {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			log.Fatal(err)
		}
		keys[i] = k
		pubs[i] = &k.PublicKey
	}
	ring, err := ringsig.NewRing(pubs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring of %d providers, signature size %d bytes\n", ring.Size(), ring.SignatureSize())

	// N3 (index 2) actually has a route and signs the statement; B
	// verifies that some ring member signed.
	statement := []byte("a route to 203.0.113.0/24 exists, epoch 9")
	sig, err := ring.Sign(statement, keys[2])
	if err != nil {
		log.Fatal(err)
	}
	if err := ring.Verify(statement, sig); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("B verified: one of {N1,N2,N3,N4} vouches that a route exists")

	// The signature is structurally identical no matter who signed: every
	// component has the same width, and signatures by different members
	// verify the same way.
	sigByN1, err := ring.Sign(statement, keys[0])
	if err != nil {
		log.Fatal(err)
	}
	if err := ring.Verify(statement, sigByN1); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signatures by N3 and N1 are indistinguishable in shape: %d vs %d bytes\n",
		len(sig.V)*(len(sig.Xs)+1), len(sigByN1.V)*(len(sigByN1.Xs)+1))

	// Changing the statement breaks it.
	if err := ring.Verify([]byte("no route exists"), sig); err == nil {
		log.Fatal("forged statement accepted")
	}
	fmt.Println("altered statements are rejected; the signer's anonymity is preserved")
	// Output:
	// ring of 4 providers, signature size 740 bytes
	// B verified: one of {N1,N2,N3,N4} vouches that a route exists
	// signatures by N3 and N1 are indistinguishable in shape: 740 vs 740 bytes
	// altered statements are rejected; the signer's anonymity is preserved
}
