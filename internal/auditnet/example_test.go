package auditnet_test

import (
	"fmt"
	"log"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/gossip"
	"pvr/internal/sigs"
)

// ExampleAuditor shows equivocation detection from signed statements
// alone: two validly signed, different payloads on one topic convict the
// origin, and the evidence is transferable to any third party.
func ExampleAuditor() {
	reg := sigs.NewRegistry()
	signer, err := sigs.GenerateEd25519()
	if err != nil {
		log.Fatal(err)
	}
	liar := aspath.ASN(64500)
	reg.Register(liar, signer.Public())

	auditor, err := auditnet.New(auditnet.Config{ASN: 64501, Registry: reg})
	if err != nil {
		log.Fatal(err)
	}
	sign := func(payload string) gossip.Statement {
		sig, err := signer.Sign([]byte(payload))
		if err != nil {
			log.Fatal(err)
		}
		return gossip.Statement{Origin: liar, Topic: "seal/epoch-1", Payload: []byte(payload), Sig: sig}
	}
	if _, _, err := auditor.AddRecord(auditnet.Record{Epoch: 1, S: sign("root-A")}); err != nil {
		log.Fatal(err)
	}
	// The same topic, a different validly signed payload: equivocation.
	_, conflict, err := auditor.AddRecord(auditnet.Record{Epoch: 1, S: sign("root-B")})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conflict detected: %v\nconvicted: %v\n", conflict != nil, auditor.Convicted(liar))
	// Output:
	// conflict detected: true
	// convicted: true
}
